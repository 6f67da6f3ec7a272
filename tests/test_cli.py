"""End-to-end CLI tests, run in-process through main(argv)."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bayonet as bn
from bayonet import cli
from bayonet.cli import main
import helpers


def make_csv(tmp_path, seed=5, n=80, p=3, beta=None, name="data.csv"):
    if beta is None:
        beta = np.array([1.0, -0.5, 0.0])[:p]
    rng = np.random.default_rng(seed)
    preds = rng.normal(size=(n, p))
    ys = preds @ beta + 0.3 * rng.normal(size=n)
    path = tmp_path / name
    helpers.write_csv(path, [f"g{j}" for j in range(p)], preds, ys)
    return path


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    if capsys is not None:
        return code, capsys.readouterr()
    return code


# --- fit ----------------------------------------------------------------

def test_fit_json_schema_and_round_trip(tmp_path):
    csv = make_csv(tmp_path)
    out = tmp_path / "fit.json"
    code = run(["fit", csv, "--response", "y", "--lambda", "0.05",
                "--mu", "0.1", "--tau", "200", "--out", out])
    assert code == 0
    payload = json.loads(out.read_text())
    for key in ("predictors", "lambda", "mu", "tau", "x_ml", "x_tau", "u_tau",
                "h_min", "log_z", "map_tau", "cycles"):
        assert key in payload
    assert payload["predictors"] == ["g0", "g1", "g2"]
    assert payload["tau"] == 200.0

    # 17-digit output must round-trip to the library's own floats exactly
    data, _ = bn.load_csv(str(csv), "y")
    std = bn.standardize(data)
    prob = bn.build_problem(std, 0.05, 0.1, 200.0)
    ml = bn.solve_ml(prob)
    sad = bn.solve_saddle(prob, ml.x_hat)
    assert payload["x_ml"] == list(ml.x_hat)
    assert payload["x_tau"] == list(sad.x_tau)
    assert payload["h_min"] == ml.h_min
    assert payload["log_z"] == bn.log_partition(prob, sad).log_z


def test_fit_map_tau_sentinel(tmp_path):
    csv = make_csv(tmp_path)
    out = tmp_path / "fit.json"
    assert run(["fit", csv, "--response", "y", "--lambda", "0.05",
                "--mu", "0.1", "--tau", "map", "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["tau"] == payload["map_tau"]
    assert payload["tau"] > 0


def test_fit_huge_mu_gives_all_zero_ml(tmp_path):
    csv = make_csv(tmp_path)
    out = tmp_path / "fit.json"
    assert run(["fit", csv, "--response", "y", "--lambda", "0.05",
                "--mu", "50.0", "--tau", "100", "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["x_ml"] == [0.0, 0.0, 0.0]


def test_fit_small_tau_converges(tmp_path):
    # near the ridge limit the raw residual cannot fall below ~eps*|w|/tau;
    # the solver's tolerance scales with 1/tau there instead of running out
    csv = make_csv(tmp_path, n=60, p=5, beta=np.array([1.0, -0.5, 0.0, 0.3, 0.0]))
    out = tmp_path / "fit.json"
    assert run(["fit", csv, "--response", "y", "--lambda", "0.1", "--mu", "0.05",
                "--tau", "1e-7", "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert max(abs(u) for u in payload["u_tau"]) < 0.05


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fit_property")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    p=st.integers(1, 8),
    lam=st.floats(0.0, 1.0),
    k=st.floats(1.0, 12.0),
    log_tau=st.floats(-2.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_valid_or_exits_3(property_dir, n, p, lam, k, log_tau, seed):
    # mu = (1 - 10^-k) mu_max sits just below the first coordinate's
    # activation; tau reaches 1e10; n = 2 makes every column collinear
    rng = np.random.default_rng(seed)
    preds, ys = rng.standard_normal((n, p)), rng.standard_normal(n)
    csv, out = property_dir / "data.csv", property_dir / "fit.json"
    helpers.write_csv(csv, [f"g{j}" for j in range(p)], preds, ys)
    data, _ = bn.load_csv(str(csv), "y")
    std = bn.standardize(data)
    # the w of build_problem, which lam = 0 with n < p would refuse
    w = std.predictors.T @ std.responses / (2.0 * n)
    mu = (1.0 - 10.0**-k) * bn.mu_max(w)
    code = run(["fit", csv, "--response", "y", "--lambda", repr(lam), "--mu", repr(mu),
                "--tau", repr(10.0**log_tau), "--out", out])
    assert code in (0, 3)
    if code == 3:
        return
    d = json.loads(out.read_text())
    for key in ("x_ml", "x_tau", "u_tau"):
        assert None not in d[key], key
    for key in ("tau", "h_min", "log_z", "map_tau"):
        assert d[key] is not None, key
    x, u = np.array(d["x_tau"]), np.array(d["u_tau"])
    assert np.max(np.abs(u)) < d["mu"]
    assert np.all(2.0 * u * x + 1.0 / d["tau"] > 0.0)


def test_fit_writes_stdout_without_out(tmp_path, capsys):
    csv = make_csv(tmp_path)
    code, cap = run(["fit", csv, "--response", "y", "--lambda", "0.05",
                     "--mu", "0.1", "--tau", "50"], capsys)
    assert code == 0
    payload = json.loads(cap.out)
    assert len(payload["x_tau"]) == 3


def test_fit_diabetes_end_to_end(tmp_path, diabetes):
    if diabetes is None:
        pytest.skip("diabetes data not available")
    csv = tmp_path / "diabetes.csv"
    helpers.write_csv(csv, [f"g{j}" for j in range(10)],
                      diabetes.predictors, diabetes.responses)
    out = tmp_path / "fit.json"
    assert run(["fit", csv, "--response", "y", "--lambda", "0.1",
                "--mu", "0.0397", "--tau", "682.3", "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["x_ml"]) == 10
    assert len(payload["x_tau"]) == 10
    assert abs(payload["map_tau"] - 682.3) / 682.3 < 0.005


# --- error paths ----------------------------------------------------------

def test_malformed_csv_exits_2_with_line_number(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y\n1.0,2.0,3.0\n1.0,oops,2.5\n0.5,1.5,2.0\n")
    code, cap = run(["fit", path, "--response", "y", "--mu", "0.1",
                     "--tau", "10"], capsys)
    assert code == 2
    assert "line 3" in cap.err


def test_missing_file_exits_2(tmp_path, capsys):
    code, cap = run(["fit", tmp_path / "nope.csv", "--response", "y",
                     "--mu", "0.1", "--tau", "10"], capsys)
    assert code == 2
    assert cap.err != ""


@pytest.mark.parametrize("verb, flags", [
    ("fit", ["--mu", "0.1", "--tau", "10"]),
    ("marginal", ["--mu", "0.1", "--tau", "10", "--coords", "0"]),
])
def test_output_path_under_a_file_exits_2(tmp_path, capsys, verb, flags):
    # a path through a regular file raises NotADirectoryError, an OSError
    csv = make_csv(tmp_path)
    code, cap = run([verb, csv, "--response", "y", *flags,
                     "--out", csv / "x.json"], capsys)
    assert code == 2
    assert cap.err.startswith("error: ")


def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys):
    # the output is written to a temporary file beside it and renamed; a
    # rename onto a directory fails, and the temporary file is removed
    csv, out = make_csv(tmp_path), tmp_path / "fit.json"
    out.mkdir()
    code, cap = run(["fit", csv, "--response", "y", "--mu", "0.1", "--tau", "10",
                     "--out", out], capsys)
    assert code == 2
    assert cap.err.startswith("error: ")
    assert out.is_dir() and not list(tmp_path.glob(".fit.json.*"))


def test_failed_rename_and_cleanup_exit_2_with_the_rename_error(tmp_path, capsys,
                                                              monkeypatch):
    # the temporary file cannot be removed either: the rename's error is
    # the one reported, and the output path is never written
    def refuse(message):
        def call(*args, **kwargs):
            raise OSError(message)
        return call

    csv, out = make_csv(tmp_path), tmp_path / "fit.json"
    monkeypatch.setattr(cli.os, "replace", refuse("rename refused"))
    monkeypatch.setattr(cli.os, "unlink", refuse("unlink refused"))
    code, cap = run(["fit", csv, "--response", "y", "--mu", "0.1", "--tau", "10",
                     "--out", out], capsys)
    assert code == 2
    assert cap.err == "error: rename refused\n"
    assert not out.exists()


@pytest.mark.parametrize("verb, flags", [
    ("cv", ["--folds", "3"]),
    ("convergence", ["--mu", "0.1"]),
])
def test_overflowing_tau_grid_exits_4_without_warning(tmp_path, verb, flags):
    # 10^(0.25*2002) is no float: the grid is refused as bad configuration
    # before numpy's power could print an overflow warning
    env = dict(os.environ, PYTHONPATH=str(Path(bn.__file__).parents[1]))
    argv = [verb, make_csv(tmp_path), "--response", "y", *flags,
            "--tau-grid", "2000,3", "--out", tmp_path / "out"]
    fresh = subprocess.run(
        [sys.executable, "-m", "bayonet.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert fresh.returncode == 4
    assert fresh.stderr.startswith("error: ")
    assert "RuntimeWarning" not in fresh.stderr


def extreme_csv(tmp_path, standardized):
    # 40x5 with three planted signals, as drawn or already standardized
    rng = np.random.default_rng(3)
    preds = rng.standard_normal((40, 5))
    ys = preds @ np.array([1.0, 0.0, -0.5, 0.0, 0.3]) + rng.standard_normal(40)
    if standardized:
        std = bn.standardize(bn.Dataset(responses=ys, predictors=preds))
        preds, ys = std.predictors, std.responses
    path = tmp_path / "extreme.csv"
    helpers.write_csv(path, [f"g{j}" for j in range(5)], preds, ys)
    return path


@pytest.mark.parametrize("standardized, argv", [
    (True, ["fit", "--mu", "1e78", "--tau", "10"]),
    (True, ["fit", "--mu", "1e10", "--tau", "1e290"]),
    (False, ["fit", "--mu", "1e-170", "--tau", "10"]),
    (True, ["fit", "--mu", "1e155", "--tau", "10"]),
    (True, ["fit", "--lambda", "0.1", "--mu", "1e-20", "--tau", "10"]),
    (True, ["convergence", "--mu", "1e78", "--tau-grid", "1,2"]),
    (True, ["marginal", "--lambda", "0", "--mu", "0.1", "--tau", "1e100"]),
    (True, ["marginal", "--lambda", "0", "--mu", "0.1", "--tau", "1e200"]),
    (True, ["marginal", "--lambda", "0", "--mu", "0.1", "--tau", "1e300"]),
], ids=["fit-mu78", "fit-tau290", "fit-mu-170", "fit-mu155", "fit-mu-20", "convergence-mu78",
        "marginal-tau100", "marginal-tau200", "marginal-tau300"])
def test_extreme_mu_or_tau_exits_3_without_warning(tmp_path, capsys, standardized, argv):
    # D overflowed or was 0/0, the first residual overflowed, or the default
    # marginal grid collapsed onto one float: each printed a RuntimeWarning
    # (a traceback under -W error) or exited 4 naming a grid nobody gave.
    # At mu 1e-20 no cubic root is interior, and its message printed the
    # numpy scalars' reprs
    verb, *flags = argv
    csv = extreme_csv(tmp_path, standardized)
    code, cap = run([verb, csv, "--response", "y", *flags, "--out", tmp_path / "out"],
                    capsys)
    assert code == 3
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert "RuntimeWarning" not in cap.err
    assert "np.float64" not in cap.err


def test_unstandardized_input_with_flag_exits_2(tmp_path, capsys):
    csv = make_csv(tmp_path)
    code, cap = run(["fit", csv, "--response", "y", "--no-standardize",
                     "--mu", "0.1", "--tau", "10"], capsys)
    assert code == 2


def test_standardized_input_with_flag_fits_as_without(tmp_path):
    # a CSV holding standardize's output passes the check as it is; without
    # the flag it is standardized again, which moves it by rounding only
    data, _ = bn.load_csv(str(make_csv(tmp_path)), "y")
    std = bn.standardize(data)
    path = tmp_path / "std.csv"
    helpers.write_csv(path, ["g0", "g1", "g2"], std.predictors, std.responses)
    argv = ["fit", path, "--response", "y", "--lambda", "0.05", "--mu", "0.1",
            "--tau", "50", "--out"]
    assert run([*argv, tmp_path / "flag.json", "--no-standardize"]) == 0
    assert run([*argv, tmp_path / "plain.json"]) == 0
    flag, plain = (json.loads((tmp_path / f"{name}.json").read_text())
                   for name in ("flag", "plain"))
    assert np.max(np.abs(np.subtract(flag["x_tau"], plain["x_tau"]))) < 1e-12
    assert flag["log_z"] == plain["log_z"]


def test_unconverged_ml_stage_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bn.mlfit, "_MAX_CYCLES", 1)
    code, cap = run(["fit", make_csv(tmp_path), "--response", "y", "--mu", "0.1",
                     "--tau", "10"], capsys)
    assert code == 3
    assert "ML stage" in cap.err


def test_fit_on_a_latitude_column_exits_0(tmp_path, capsys):
    # standardize refused its own output here, as "data marked standardized
    # but fails the check", a flag nobody set: centering 40.7 +- 0.05 left
    # more rounding in the column's sums over 5000 rows than an absolute 1e-10
    raw = helpers.latitude_dataset(n=5000)
    path = tmp_path / "lat.csv"
    helpers.write_csv(path, ["g0", "lat", "g2", "g3"], raw.predictors, raw.responses)
    code, cap = run(["fit", path, "--response", "y", "--lambda", "0.1",
                     "--mu", "0.05", "--tau", "100", "--out", tmp_path / "fit.json"],
                    capsys)
    assert code == 0, cap.err


@pytest.mark.parametrize("response", ["g0", "y"])
def test_byte_order_mark_is_not_part_of_a_name(tmp_path, response):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark
    plain = make_csv(tmp_path)
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    out = tmp_path / "fit.json"
    assert run(["fit", path, "--response", response, "--mu", "0.1",
                "--tau", "10", "--out", out]) == 0
    names = json.loads(out.read_bytes())["predictors"]
    assert names == [n for n in ("g0", "g1", "g2", "y") if n != response]


def test_latin1_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("gr\u00f6\u00dfe,b,y\n1,2,3\n4,5,7\n2,9,1\n".encode("latin-1"))
    code, cap = run(["fit", path, "--response", "y", "--mu", "0.1",
                     "--tau", "10"], capsys)
    assert code == 2
    assert "not UTF-8" in cap.err


_UTF8_NAME = "gr\u00f6\u00dfe"


def _gibbs_under_an_ascii_locale(tmp_path, *extra):
    # gibbs in a fresh process on a CSV whose header holds a non-ASCII name;
    # returns the process, whose stdout is kept as bytes
    plain = make_csv(tmp_path)
    path = tmp_path / "utf8.csv"
    path.write_bytes(plain.read_bytes().replace(b"g1", _UTF8_NAME.encode("utf-8")))
    env = dict(os.environ, PYTHONPATH=str(Path(bn.__file__).parents[1]),
               LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    argv = ["gibbs", path, "--response", "y", "--mu", "0.1", "--tau", "10",
            "--gibbs-sweeps", "20", *extra]
    return subprocess.run([sys.executable, "-m", "bayonet.cli", *map(str, argv)],
                          capture_output=True, env=env)


def test_utf8_names_under_an_ascii_locale(tmp_path):
    # the CSV is read and written as UTF-8 whatever the locale says
    out = tmp_path / "chain.csv"
    proc = _gibbs_under_an_ascii_locale(tmp_path, "--out", out)
    assert proc.returncode == 0, proc.stderr
    head = out.read_bytes().split(b"\n")[0]
    assert head == ",".join(["g0", _UTF8_NAME, "g2"]).encode("utf-8")


def test_utf8_names_on_stdout_under_an_ascii_locale(tmp_path):
    # without --out the same bytes go to stdout, past its ASCII text layer,
    # which would raise UnicodeEncodeError (a ValueError, so exit 4)
    proc = _gibbs_under_an_ascii_locale(tmp_path)
    assert proc.returncode == 0, proc.stderr
    head = proc.stdout.split(b"\n")[0]
    assert head == ",".join(["g0", _UTF8_NAME, "g2"]).encode("utf-8")


def test_numerical_failure_exits_3(tmp_path, capsys):
    # p > n with lambda = 0 gives a rank-deficient quadratic form
    rng = np.random.default_rng(2)
    preds = rng.normal(size=(3, 5))
    ys = rng.normal(size=3)
    path = tmp_path / "wide.csv"
    helpers.write_csv(path, [f"g{j}" for j in range(5)], preds, ys)
    code, cap = run(["fit", path, "--response", "y", "--lambda", "0",
                     "--mu", "0.1", "--tau", "10"], capsys)
    assert code == 3
    assert cap.err != ""


def collinear_csv(seed):
    # column 6 = 2 * column 0 + 1: exactly dependent once standardized.  At
    # lam = 0 the Cholesky of C fails outright for seed 8, while for seed 2
    # rounding leaves it a pivot of ~1e-16 relative that must still count
    def write(tmp_path):
        rng = np.random.default_rng(seed)
        preds = rng.normal(size=(60, 7))
        preds[:, 6] = 2.0 * preds[:, 0] + 1.0
        ys = preds[:, :3] @ np.array([1.0, -0.5, 0.2]) + 0.3 * rng.normal(size=60)
        path = tmp_path / "collinear.csv"
        helpers.write_csv(path, [f"g{j}" for j in range(7)], preds, ys)
        return path

    return write


def wide_csv(tmp_path, n=100, p=400):
    beta = np.zeros(p)
    beta[:3] = [1.0, -0.5, 0.3]
    return make_csv(tmp_path, n=n, p=p, beta=beta, name="wide.csv")


@pytest.mark.parametrize("design, lam, code", [
    (collinear_csv(8), "0", 3),
    (collinear_csv(2), "0", 3),
    (collinear_csv(2), "0.1", 0),
    (lambda tmp_path: make_csv(tmp_path, n=2), "0.1", 0),
    # no C is factored when p > n: every Cholesky pivot^2 of C is at least
    # lam, so lam / max_j C_jj is held to the dense check's floor
    (wide_csv, "1e-14", 3),
    (wide_csv, "1e-12", 0),
], ids=["collinear-lasso-8", "collinear-lasso-2", "collinear-ridge", "two-rows",
        "wide-lambda-1e-14", "wide-lambda-1e-12"])
def test_hostile_designs(tmp_path, capsys, design, lam, code):
    path = design(tmp_path)
    argv = ["fit", path, "--response", "y", "--lambda", lam,
            "--mu", "0.1", "--tau", "10"]
    got, cap = run(argv, capsys)
    assert got == code
    if code == 3:
        assert cap.err.startswith("error: ")
        std = bn.standardize(bn.load_csv(str(path), "y")[0])
        with pytest.raises(bn.SingularMatrix):
            bn.build_problem(std, float(lam), 0.1, 10.0)
    else:
        payload = json.loads(cap.out)
        assert np.all(np.isfinite(payload["x_tau"]))
        assert np.isfinite(payload["log_z"])


def test_wide_verbs_never_build_c(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("the p x p C was built")

    monkeypatch.setattr(bn.PenalizedProblem, "_dense_c", refuse)
    csv = wide_csv(tmp_path)
    common = ["--response", "y", "--lambda", "0.1"]
    for verb, flags in (
        ("fit", ["--mu", "0.1", "--tau", "map"]),
        ("convergence", ["--mu", "0.1", "--tau-grid", "12,2"]),
        ("marginal", ["--mu", "0.1", "--tau", "map", "--coords", "0", "--ml-curve"]),
        ("cv", ["--screen-top", "150", *_BASE_ARGS["cv"]]),
    ):
        out = tmp_path / verb
        assert run([verb, csv, *common, *flags, "--out", out]) == 0, verb


def fit_bytes_at(tmp_path, threads, name):
    # fit's output bytes from a fresh process with every BLAS pool pinned
    env = dict(os.environ, PYTHONPATH=str(Path(bn.__file__).parents[1]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    out = tmp_path / name
    argv = ["fit", wide_csv(tmp_path), "--response", "y", "--lambda", "0.1",
            "--mu", "0.02", "--tau", "map", "--out", out]
    subprocess.run([sys.executable, "-m", "bayonet.cli", *map(str, argv)],
                   capture_output=True, env=env, check=True)
    return out.read_bytes()


def test_same_blas_threads_same_fit_bytes(tmp_path):
    # same seed, same bytes holds for one platform, BLAS build and BLAS
    # thread count: BLAS reductions sum in an order set by the thread
    # count, so on numpy 2.4 with OpenBLAS 0.3.31 this design's log_z moves
    # in its last digits between 1 and 2 threads, but never between two
    # runs at 2
    assert fit_bytes_at(tmp_path, 2, "a.json") == fit_bytes_at(tmp_path, 2, "b.json")


def test_usage_errors_exit_4(tmp_path, capsys):
    csv = make_csv(tmp_path)
    assert run(["nonsense", csv, "--response", "y"], capsys)[0] == 4
    assert run(["fit", csv, "--response", "y", "--mu", "-1",
                "--tau", "10"], capsys)[0] == 4
    assert run(["fit", csv, "--response", "y", "--mu", "0.1",
                "--tau", "soon"], capsys)[0] == 4
    assert run(["fit", csv, "--response", "y", "--mu", "0.1"], capsys)[0] == 4
    assert run(["fit", csv, "--mu", "0.1", "--tau", "10"], capsys)[0] == 4
    assert run(["marginal", csv, "--response", "y", "--mu", "0.1",
                "--tau", "10", "--format", "json"], capsys)[0] == 4
    assert run(["marginal", csv, "--response", "y", "--mu", "0.1",
                "--tau", "10", "--coords", "7"], capsys)[0] == 4
    assert run(["fit", csv, "--response", "y", "--lambda", "-0.5",
                "--mu", "0.1", "--tau", "10"], capsys)[0] == 4
    assert run(["maptau", csv, "--response", "y", "--mu", "0.1",
                "--tol", "0"], capsys)[0] == 4
    assert run(["convergence", csv, "--response", "y",
                "--mu-grid", "3"], capsys)[0] == 4
    for top in ("0", "-1"):
        assert run(["cv", csv, "--response", "y", *_BASE_ARGS["cv"],
                    "--screen-top", top], capsys)[0] == 4


@pytest.mark.parametrize("verb, flags", [
    ("fit", ["--mu", "0.1", "--tau", "50", "--tol", "inf"]),
    ("fit", ["--mu", "0.1", "--tau", "50", "--tol", "nan"]),
    ("fit", ["--mu", "0.1", "--tau", "inf"]),
    ("maptau", ["--mu", "inf"]),
], ids=["tol-inf", "tol-nan", "tau-inf", "mu-inf"])
def test_non_finite_numbers_exit_4(tmp_path, capsys, verb, flags):
    code, cap = run([verb, make_csv(tmp_path), "--response", "y", *flags], capsys)
    assert code == 4
    assert cap.err.startswith("error: ")


_BASE_ARGS = {
    "fit": ["--mu", "0.1", "--tau", "50"],
    "marginal": ["--mu", "0.1", "--tau", "50", "--coords", "0"],
    "convergence": ["--mu", "0.1", "--tau-grid", "6,3"],
    "gibbs": ["--mu", "0.1", "--tau", "50", "--gibbs-sweeps", "100"],
    "cv": ["--mu-grid", "2,0.1", "--tau-grid", "12,2", "--folds", "3"],
    "maptau": ["--mu", "0.1"],
}


@pytest.mark.parametrize("verb, flags", [
    ("maptau", ["--gibbs"]),
    ("fit", ["--coords", "3"]),
    ("cv", ["--tau", "10", "--mu", "5"]),
    ("cv", ["--no-standardize"]),
    ("convergence", ["--tau", "10"]),
    ("gibbs", ["--ml-curve"]),
    ("fit", ["--format", "json"]),
    ("marginal", ["--format", "csv"]),
    ("maptau", ["--tau", "10"]),
    ("fit", ["--folds", "3"]),
    ("gibbs", ["--coords", "0"]),
    ("marginal", ["--screen-top", "2"]),
    ("convergence", ["--seed", "1"]),
    ("cv", ["--gibbs-sweeps", "10"]),
    ("cv", ["--tau-g", "12,2"]),  # a prefix of --tau-grid is not --tau-grid
])
def test_flag_foreign_to_verb_exits_4(tmp_path, capsys, verb, flags):
    argv = [verb, tmp_path / "data.csv", "--response", "y", *_BASE_ARGS[verb]]
    cli._build_parser().parse_args([str(a) for a in argv])
    code, cap = run(argv + flags, capsys)
    assert code == 4
    assert cap.err.startswith("error: ")


def test_parser_reuse_matches_fresh_processes(tmp_path, capsys):
    # one process keeps one parser; a usage error must leave nothing behind
    # that changes the next request's bytes or exit code
    csv = make_csv(tmp_path)
    requests = [
        ["fit", csv, "--response", "y", "--mu", "-1", "--tau", "10"],
        ["fit", csv, "--response", "y", "--lambda", "0.05", "--mu", "0.1",
         "--tau", "200"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(bn.__file__).parents[1]))
    for argv, want in zip(requests, (4, 0)):
        code, cap = run(argv, capsys)
        fresh = subprocess.run(
            [sys.executable, "-m", "bayonet.cli", *map(str, argv)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert code == fresh.returncode == want
        assert (cap.out, cap.err) == (fresh.stdout, fresh.stderr)


_NUMERICAL = (bn.NotConverged, bn.NoAdmissibleRoot,
              bn.SingularMatrix, bn.NumericalOverflow, bn.TransitionValue,
              bn.DegenerateDenominator, bn.AllZeroW)


@pytest.mark.parametrize("cls", _NUMERICAL, ids=lambda c: c.__name__)
def test_numerical_error_classes_exit_3(capsys, monkeypatch, cls):
    assert issubclass(cls, bn.NumericalError)

    def fail(args):
        raise cls(7)

    monkeypatch.setitem(cli._COMMANDS, "fit", fail)
    code, cap = run(["fit", "data.csv", "--response", "y", "--mu", "0.1",
                     "--tau", "10"], capsys)
    assert code == 3
    assert cap.err.startswith("error: ")


# --- marginal ---------------------------------------------------------------

def read_curve(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    header = rows[0]
    cols = np.array([[float(c) for c in row] for row in rows[1:]])
    return header, cols


def test_marginal_single_predictor_matches_exact_density(tmp_path):
    csv = make_csv(tmp_path, seed=9, n=60, p=1, beta=np.array([0.8]))
    prefix = tmp_path / "curve"
    assert run(["marginal", csv, "--response", "y", "--lambda", "0.5",
                "--mu", "0.2", "--tau", "150", "--out", prefix]) == 0
    header, cols = read_curve(tmp_path / "curve_coord0.csv")
    assert header == ["x", "density_sp"]
    data, _ = bn.load_csv(str(csv), "y")
    std = bn.standardize(data)
    prob = bn.build_problem(std, 0.5, 0.2, 150.0)
    one = bn.OneDimProblem(float(prob.c[0, 0]), float(prob.w[0]), 0.2, 150.0)
    ref = bn.density_exact(one, cols[:, 0])
    assert np.max(np.abs(cols[:, 1] - ref)) < 1e-3


def test_marginal_single_predictor_ml_curve_column(tmp_path):
    csv = make_csv(tmp_path, seed=9, n=60, p=1, beta=np.array([0.8]))
    prefix = tmp_path / "curve"
    assert run(["marginal", csv, "--response", "y", "--lambda", "0.5",
                "--mu", "0.2", "--tau", "150", "--ml-curve", "--out", prefix]) == 0
    header, cols = read_curve(tmp_path / "curve_coord0.csv")
    assert header == ["x", "density_sp", "density_ml"]
    for k in (1, 2):
        assert abs(np.trapezoid(cols[:, k], cols[:, 0]) - 1.0) < 1e-9
    # both columns are the exact one-coordinate density on the same grid
    assert np.max(np.abs(cols[:, 2] - cols[:, 1])) < 1e-12 * cols[:, 1].max()


def test_marginal_all_coords_normalized(tmp_path):
    csv = make_csv(tmp_path, seed=13, n=90, p=5,
                   beta=np.array([1.0, -0.6, 0.3, 0.0, 0.0]))
    prefix = tmp_path / "m"
    assert run(["marginal", csv, "--response", "y", "--lambda", "0.05",
                "--mu", "0.08", "--tau", "300", "--coords", "all",
                "--out", prefix]) == 0
    for j in range(5):
        header, cols = read_curve(tmp_path / f"m_coord{j}.csv")
        mass = np.trapezoid(cols[:, 1], cols[:, 0])
        assert abs(mass - 1.0) < 1e-9


def test_marginal_sds_once_and_library_grids(tmp_path, monkeypatch):
    # one posterior_sd for the whole request, and each curve's grid is
    # exactly the one marginal_sp lays out by itself
    csv = make_csv(tmp_path, seed=13, n=90, p=5,
                   beta=np.array([1.0, -0.6, 0.3, 0.0, 0.0]))
    calls = []
    sd = bn.posterior.posterior_sd

    def counted(*args):
        calls.append(1)
        return sd(*args)

    monkeypatch.setattr(cli, "posterior_sd", counted)
    monkeypatch.setattr(bn.posterior, "posterior_sd", counted)
    prefix = tmp_path / "m"
    assert run(["marginal", csv, "--response", "y", "--lambda", "0.05",
                "--mu", "0.08", "--tau", "300", "--coords", "all",
                "--out", prefix]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    std = bn.standardize(bn.load_csv(str(csv), "y")[0])
    prob = bn.build_problem(std, 0.05, 0.08, 300.0)
    sad = bn.solve_saddle(prob, bn.solve_ml(prob).x_hat)
    for j in range(5):
        _, cols = read_curve(tmp_path / f"m_coord{j}.csv")
        assert np.array_equal(cols[:, 0], bn.marginal_sp(prob, sad, j).grid)


def test_marginal_ml_curve_column(tmp_path):
    csv = make_csv(tmp_path, seed=13, n=90, p=5,
                   beta=np.array([1.0, -0.6, 0.3, 0.0, 0.0]))
    prefix = tmp_path / "m"
    assert run(["marginal", csv, "--response", "y", "--lambda", "0.05",
                "--mu", "0.08", "--tau", "300", "--coords", "0",
                "--ml-curve", "--out", prefix]) == 0
    header, cols = read_curve(tmp_path / "m_coord0.csv")
    assert header == ["x", "density_sp", "density_ml"]
    assert abs(np.trapezoid(cols[:, 2], cols[:, 0]) - 1.0) < 1e-9


def test_marginal_gibbs_histogram_matches_bins(tmp_path):
    csv = make_csv(tmp_path, seed=13, n=90, p=5,
                   beta=np.array([1.0, -0.6, 0.3, 0.0, 0.0]))
    prefix = tmp_path / "m"
    assert run(["marginal", csv, "--response", "y", "--lambda", "0.05",
                "--mu", "0.08", "--tau", "300", "--coords", "2", "--gibbs",
                "--gibbs-sweeps", "2000", "--seed", "4", "--out", prefix]) == 0
    _, curve = read_curve(tmp_path / "m_coord2.csv")
    _, hist = read_curve(tmp_path / "m_coord2_gibbs.csv")
    # histogram bin edges are exactly the curve grid
    assert np.array_equal(hist[:, 0], curve[:-1, 0])
    assert np.array_equal(hist[:, 1], curve[1:, 0])
    assert np.all(hist[:, 2] >= 0.0)
    mass = np.sum(hist[:, 2] * (hist[:, 1] - hist[:, 0]))
    assert 0.9 < mass <= 1.0 + 1e-12


@pytest.mark.parametrize("flags", [
    ["--gibbs-sweeps", "500"],
    ["--burn-in", "5"],
    ["--thin", "2"],
    ["--seed", "0"],
    ["--coords", "1,1"],
])
def test_marginal_refuses_flags_it_would_not_read(tmp_path, capsys, flags):
    # sampler flags without --gibbs, or a coordinate named twice, were
    # accepted and ignored (the twice-named curve was solved and written twice)
    csv = make_csv(tmp_path)
    code, cap = run(["marginal", csv, "--response", "y", "--mu", "0.1",
                     "--tau", "50", *flags, "--out", tmp_path / "m"], capsys)
    assert code == 4
    assert cap.err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


@pytest.mark.parametrize("coords", ["1,1", "3", "0,x"])
def test_marginal_checks_coords_before_the_fit(tmp_path, capsys, monkeypatch, coords):
    solves = counting(monkeypatch, "solve_saddle")
    builds = counting(monkeypatch, "build_problem")
    code, cap = run(["marginal", make_csv(tmp_path), "--response", "y",
                     "--mu", "0.1", "--tau", "50", "--coords", coords,
                     "--out", tmp_path / "m"], capsys)
    assert code == 4
    assert cap.err.startswith("error: ")
    assert solves == [] and builds == []


def _jsonify_elementwise(obj):
    # the converter before float arrays took one tolist(): every element
    # through the scalar cases
    if isinstance(obj, dict):
        return {k: _jsonify_elementwise(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify_elementwise(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify_elementwise(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def test_json_float_arrays_convert_as_elementwise(tmp_path):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50)
    payload = {
        "finite": x,
        "signed_zero": np.array([0.0, -0.0, 5e-324, 1.7976931348623157e308]),
        "matrix": rng.standard_normal((3, 4)),
        "float32": rng.standard_normal(5).astype(np.float32),
        "nonfinite": np.array([1.0, np.nan, np.inf, -np.inf]),
        "nonfinite_matrix": np.array([[0.5, np.nan], [np.inf, 2.0]]),
        "ints": np.arange(4),
        "empty": np.zeros(0),
        "nested": [x[:3], {"y": np.float64(0.25), "z": np.float64(np.nan)}],
        "scalars": [np.int64(3), 1.5, "text", None, True],
    }
    out = tmp_path / "p.json"
    cli._write_json(out, payload)
    assert out.read_text() == json.dumps(_jsonify_elementwise(payload), indent=2) + "\n"


_JSON_SCALARS = (
    st.floats() | st.integers(-(2**70), 2**70) | st.booleans() | st.none() | st.text(max_size=6)
)


def _float_arrays(ndim):
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=0, max_side=4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    payload=st.recursive(
        _JSON_SCALARS | st.lists(st.floats(), max_size=6) | _float_arrays(2) | _float_arrays(3),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=30,
    )
)
def test_json_writer_matches_indented_dumps(payload):
    # nested dicts and lists, 2-D and 3-D score arrays, NaN and inf (null),
    # empty containers, ints, bools, non-ASCII and quoted names
    clean = cli._jsonify(payload)
    assert cli._json_text(clean) == json.dumps(clean, indent=2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
    elements=st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300]),
))
def test_csv_writer_matches_per_value_format(tmp_path_factory, table):
    # one %.17g row format over table.tolist() writes the bytes of
    # formatting every value by itself: nan, +-inf, -0 and subnormals too
    out = tmp_path_factory.mktemp("csv") / "t.csv"
    header = [f"c{k}" for k in range(table.shape[1])]
    cli._write_csv(out, header, table)
    body = "".join(",".join(f"{float(v):.17g}" for v in row) + "\n" for row in table)
    assert out.read_bytes() == (",".join(header) + "\n" + body).encode()


# --- convergence --------------------------------------------------------

def test_convergence_sweep_columns(tmp_path):
    # single predictor equal to the response: c = 1 at lambda = 0.5, w = 0.5
    rng = np.random.default_rng(3)
    col = rng.normal(size=50)
    path = tmp_path / "one.csv"
    helpers.write_csv(path, ["g0"], col[:, None], col.copy())
    out = tmp_path / "conv.csv"
    assert run(["convergence", path, "--response", "y", "--lambda", "0.5",
                "--mu-grid", "3,0.1", "--tau-grid", "5,13",
                "--out", out]) == 0
    _, rows = read_curve(out)
    taus, mus, gaps, xdiffs = rows.T
    assert np.all(gaps >= 0.0)
    for mu in np.unique(mus):
        sel = mus == mu
        order = np.argsort(taus[sel])
        g = gaps[sel][order]
        assert np.all(np.diff(g) < 0.0)
        x = xdiffs[sel][order]
        assert x[-1] < x[0]
        assert x[-1] < 1e-3


def test_convergence_gap_can_be_negative_at_small_tau(tmp_path):
    # the gap -log Z / tau - h_min has no sign: on one column at lam 0 and
    # mu 0.05 the exact 1-D gap is about -0.35 at tau 1.78, so the sweep
    # prints a negative gap there, near the exact one, and exits 0
    path, out = make_csv(tmp_path, n=30, p=1, beta=np.array([1.0])), tmp_path / "c.csv"
    assert run(["convergence", path, "--response", "y", "--lambda", "0",
                "--mu", "0.05", "--tau-grid", "1,3", "--out", out]) == 0
    _, rows = read_curve(out)
    tau, gap = rows[0, 0], rows[0, 2]
    prob = bn.build_problem(bn.standardize(bn.load_csv(str(path), "y")[0]), 0.0, 0.05, tau)
    one = bn.OneDimProblem(c=float(prob.c[0, 0]), w=float(prob.w[0]), mu=0.05, tau=tau)
    exact = -bn.log_z_exact(one) / tau - bn.solve_ml(prob).h_min
    assert exact < gap < 0.0
    assert gap - exact < 0.3


def test_convergence_grid_is_one_path_call(tmp_path, monkeypatch):
    # the whole --mu-grid is one tau_path call; an unconverged ML fit
    # raises with its own message before any solve
    path_calls, solve_ml = [], cli.solve_ml
    tau_path = cli.tau_path

    def path(problem, taus, **kwargs):
        path_calls.append(list(kwargs["mus"]))
        return tau_path(problem, taus, **kwargs)

    monkeypatch.setattr(cli, "tau_path", path)
    csv, out = make_csv(tmp_path), tmp_path / "conv.csv"
    argv = ["convergence", str(csv), "--response", "y", "--mu-grid", "4,0.1",
            "--tau-grid", "6,3", "--out", str(out)]
    assert cli.main(argv) == 0
    _, rows = read_curve(out)
    assert len(path_calls) == 1 and len(path_calls[0]) == 4
    # rows run mu by mu, taus ascending within each mu
    assert rows[:, 1].tolist() == [m for m in path_calls[0] for _ in range(3)]
    assert rows[:3, 0].tolist() == sorted(rows[:3, 0])

    def third_fails(problem, tol=1e-10):
        ml = solve_ml(problem, tol=tol)
        if problem.mu == path_calls[0][2]:
            ml = dataclasses.replace(ml, converged=False, cycles=7)
        return ml

    monkeypatch.setattr(cli, "solve_ml", third_fails)
    args = cli._build_parser().parse_args(argv)
    with pytest.raises(bn.NotConverged, match=f"ML stage at mu={path_calls[0][2]}"):
        cli.cmd_convergence(args)
    assert len(path_calls) == 1


def test_unconverged_convergence_lane_exits_3(tmp_path, capsys, monkeypatch):
    # one saddle cycle is not enough for any lane from its ML start
    monkeypatch.setattr(bn.saddle, "_MAX_CYCLES", 1)
    code, cap = run(["convergence", make_csv(tmp_path), "--response", "y",
                     "--mu", "0.1", "--tau-grid", "4,3"], capsys)
    assert code == 3
    assert "no convergence after 1 cycles (tau=" in cap.err
    assert "mu=0.1)" in cap.err


def test_convergence_requires_mu_or_grid(tmp_path, capsys):
    csv = make_csv(tmp_path)
    for extra in ([], ["--mu", "0.05", "--mu-grid", "3,0.1"]):
        code, cap = run(["convergence", csv, "--response", "y", *extra], capsys)
        assert code == 4, extra


def counting(monkeypatch, name):
    """Replace cli.<name> by a wrapper that counts its calls."""
    calls = []
    fn = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


def test_fit_computes_map_tau_once(tmp_path, monkeypatch):
    calls = counting(monkeypatch, "map_tau")
    assert run(["fit", make_csv(tmp_path), "--response", "y", "--mu", "0.1",
                "--tau", "map", "--out", tmp_path / "fit.json"]) == 0
    assert len(calls) == 1


# --- gibbs ----------------------------------------------------------------

def test_gibbs_solves_no_stationary_point(tmp_path, monkeypatch):
    # the sampler reads only the ML start, so a saddle failure cannot fail it
    calls = counting(monkeypatch, "solve_saddle")
    assert run(["gibbs", make_csv(tmp_path), "--response", "y", "--mu", "0.1",
                "--tau", "map", "--gibbs-sweeps", "50",
                "--out", tmp_path / "s.csv"]) == 0
    assert calls == []


def test_gibbs_rerun_is_byte_identical(tmp_path):
    csv = make_csv(tmp_path)
    args = ["gibbs", csv, "--response", "y", "--lambda", "0.05", "--mu", "0.1",
            "--tau", "150", "--gibbs-sweeps", "500", "--seed", "21"]
    assert run(args + ["--out", tmp_path / "s1.csv"]) == 0
    assert run(args + ["--out", tmp_path / "s2.csv"]) == 0
    b1 = (tmp_path / "s1.csv").read_bytes()
    assert b1 == (tmp_path / "s2.csv").read_bytes()
    header = b1.decode().splitlines()[0]
    assert header == "g0,g1,g2"
    assert len(b1.decode().splitlines()) == 1 + 450  # default burn-in 10%


def test_gibbs_quotes_names_that_need_it(tmp_path):
    # a header cell with a comma or a quote came back bare, so the header
    # had more fields than the rows
    rng = np.random.default_rng(8)
    preds = rng.normal(size=(40, 3))
    path = tmp_path / "quoted.csv"
    helpers.write_csv(path, ['"a,b"', '"q""t"', "g2"], preds,
                      preds @ [1.0, -0.5, 0.0] + 0.3 * rng.normal(size=40))
    out = tmp_path / "s.csv"
    assert run(["gibbs", path, "--response", "y", "--mu", "0.1", "--tau", "50",
                "--gibbs-sweeps", "20", "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a,b", 'q"t', "g2"]
    assert {len(row) for row in rows} == {3}
    assert out.read_text().splitlines()[1:] == [
        ",".join(row) for row in rows[1:]
    ]


@pytest.mark.parametrize("verb, extra", [
    ("gibbs", []),
    ("marginal", ["--gibbs", "--coords", "0"]),
])
def test_chain_that_keeps_no_samples_exits_4(tmp_path, capsys, verb, extra):
    # 10 sweeps thinned by 100 retain nothing: marginal wrote all-NaN
    # histograms and gibbs a header-only CSV; now neither writes anything
    csv = make_csv(tmp_path)
    code, cap = run([verb, csv, "--response", "y", "--lambda", "0.05",
                     "--mu", "0.1", "--tau", "150", "--gibbs-sweeps", "10",
                     "--thin", "100", *extra, "--out", tmp_path / "out"], capsys)
    assert code == 4
    assert "keeps no samples" in cap.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_refused_chain_builds_no_curve(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return bn.marginal_sp(*args, **kwargs)

    monkeypatch.setattr(cli, "marginal_sp", counted)
    csv = make_csv(tmp_path)
    code, cap = run(["marginal", csv, "--response", "y", "--lambda", "0.05",
                     "--mu", "0.1", "--tau", "150", "--gibbs", "--gibbs-sweeps",
                     "10", "--thin", "100", "--out", tmp_path / "out"], capsys)
    assert code == 4
    assert "keeps no samples" in cap.err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


# --- cv ---------------------------------------------------------------------

def test_cv_json_schema(tmp_path):
    beta = np.zeros(8)
    beta[[0, 3]] = [1.1, -0.7]
    rng = np.random.default_rng(44)
    preds = rng.normal(size=(70, 8))
    ys = preds @ beta + 0.1 * rng.normal(size=70)
    path = tmp_path / "planted.csv"
    helpers.write_csv(path, [f"g{j}" for j in range(8)], preds, ys)
    out = tmp_path / "cv.json"
    assert run(["cv", path, "--response", "y", "--lambda", "0.01",
                "--mu-grid", "4,0.01", "--tau-grid", "12,3", "--folds", "4",
                "--seed", "11", "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["folds"] == 4
    assert payload["seed"] == 11
    assert len(payload["grid"]["mus"]) == 4
    assert len(payload["grid"]["taus"]) == 3
    assert len(payload["scores"]) == 4
    assert len(payload["scores"][0]) == 3
    assert np.asarray(payload["fold_scores"]).shape == (4, 4, 3)
    best = payload["best"]
    assert best["mu"] in payload["grid"]["mus"]
    assert best["tau"] in payload["grid"]["taus"]
    assert best["median_r"] > 0.9


def test_cv_fold_with_a_constant_column_exits_0(tmp_path):
    # column 2 is constant in one training fold only: that fold's scores
    # print as null and the command still exits 0
    data = helpers.one_row_column_dataset()
    path = tmp_path / "one_row.csv"
    helpers.write_csv(path, [f"g{j}" for j in range(4)], data.predictors, data.responses)
    out = tmp_path / "cv.json"
    assert run(["cv", path, "--response", "y", "--lambda", "0.1", "--folds", "5",
                "--out", out]) == 0
    payload = json.loads(out.read_text())
    lost = [all(v is None for row in fold for v in row) for fold in payload["fold_scores"]]
    assert sum(lost) == 1
    assert all(v is not None for row in payload["scores"] for v in row)


def test_cv_on_a_column_far_from_zero_exits_0(tmp_path, capsys):
    # fit accepted this file, but a training fold's own standardize output
    # failed the standardized check at 1e6 sds from zero and cv exited 4
    raw = helpers.latitude_dataset(seed=1, n=50, center=1e6, spread=1.0)
    path = tmp_path / "offset.csv"
    helpers.write_csv(path, [f"g{j}" for j in range(4)], raw.predictors, raw.responses)
    for verb, flags in (("fit", ["--mu", "0.05", "--tau", "100"]), ("cv", ["--folds", "2"])):
        code, cap = run([verb, path, "--response", "y", "--lambda", "0.1", *flags,
                         "--out", tmp_path / f"{verb}.json"], capsys)
        assert code == 0, cap.err


@pytest.mark.parametrize("n, folds", [(20, 20), (2, 2)], ids=["loo", "two-rows"])
def test_cv_refuses_folds_of_one_sample(tmp_path, capsys, n, folds):
    # leave-one-out scored every cell 0.0 (the Pearson r of one point) and
    # named a best cell anyway; a 2-row file failed in the training fold
    path = make_csv(tmp_path, n=n, p=5, beta=np.array([1.0, -0.5, 0.0, 0.0, 0.0]))
    code, cap = run(["cv", path, "--response", "y", "--lambda", "0.1",
                     "--folds", folds, "--out", tmp_path / "cv.json"], capsys)
    assert code == 4
    assert "each held-out fold needs at least 2 samples" in cap.err
    assert not (tmp_path / "cv.json").exists()


def test_cv_every_cell_failed_names_the_fold_error(tmp_path, capsys):
    # lam = 0 on a wide design fails every fold's build_problem; the exit
    # message carries that cause, not only "every grid cell failed"
    code, cap = run(["cv", wide_csv(tmp_path), "--response", "y", "--lambda", "0",
                     "--out", tmp_path / "cv.json"], capsys)
    assert code == 3
    assert "every grid cell failed; a fold raised: lam = 0 needs n >= p" in cap.err


def test_cv_builds_no_full_problem(tmp_path, monkeypatch):
    # mu_max needs only w; C is built per training fold inside cross_validate
    calls = counting(monkeypatch, "build_problem")
    assert run(["cv", make_csv(tmp_path), "--response", "y", *_BASE_ARGS["cv"],
                "--out", tmp_path / "cv.json"]) == 0
    assert calls == []


# --- maptau -------------------------------------------------------------

def test_maptau_json(tmp_path):
    csv = make_csv(tmp_path)
    out = tmp_path / "tau.json"
    assert run(["maptau", csv, "--response", "y", "--lambda", "0.05",
                "--mu", "0.1", "--out", out]) == 0
    payload = json.loads(out.read_text())
    data, _ = bn.load_csv(str(csv), "y")
    std = bn.standardize(data)
    ml = bn.solve_ml(bn.build_problem(std, 0.05, 0.1, 1.0))
    assert payload["map_tau"] == bn.map_tau(std, 0.05, 0.1, ml)
    assert payload["active_set"] == list(ml.active_set)


def test_maptau_diabetes(tmp_path, diabetes):
    if diabetes is None:
        pytest.skip("diabetes data not available")
    csv = tmp_path / "diabetes.csv"
    helpers.write_csv(csv, [f"g{j}" for j in range(10)],
                      diabetes.predictors, diabetes.responses)
    out = tmp_path / "tau.json"
    assert run(["maptau", csv, "--response", "y", "--lambda", "0.1",
                "--mu", "0.0397", "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["map_tau"] - 682.3) / 682.3 < 0.005
