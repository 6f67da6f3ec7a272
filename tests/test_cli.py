"""End-to-end CLI tests, run in-process through main(argv)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_unstandardized_input_with_flag_exits_2(tmp_path, capsys):
    csv = make_csv(tmp_path)
    code, cap = run(["fit", csv, "--response", "y", "--no-standardize",
                     "--mu", "0.1", "--tau", "10"], capsys)
    assert code == 2


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


@pytest.mark.parametrize("design, lam, code", [
    (collinear_csv(8), "0", 3),
    (collinear_csv(2), "0", 3),
    (collinear_csv(2), "0.1", 0),
    (lambda tmp_path: make_csv(tmp_path, n=2), "0.1", 0),
], ids=["collinear-lasso-8", "collinear-lasso-2", "collinear-ridge", "two-rows"])
def test_hostile_designs(tmp_path, capsys, design, lam, code):
    path = design(tmp_path)
    argv = ["fit", path, "--response", "y", "--lambda", lam,
            "--mu", "0.1", "--tau", "10"]
    got, cap = run(argv, capsys)
    assert got == code
    if code == 3:
        assert cap.err.startswith("error: ")
        std = bn.standardize(bn.load_csv(str(path), "y")[0])
        with pytest.raises(bn.SingularC):
            bn.build_problem(std, float(lam), 0.1, 10.0)
    else:
        payload = json.loads(cap.out)
        assert np.all(np.isfinite(payload["x_tau"]))
        assert np.isfinite(payload["log_z"])


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


_NUMERICAL = (bn.NotConverged, bn.NoAdmissibleRoot, bn.SingularC,
              bn.SingularMatrix, bn.NumericalOverflow, bn.TransitionValue,
              bn.DegenerateDenominator, bn.AllZeroW, bn.GridTooSmall)


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
