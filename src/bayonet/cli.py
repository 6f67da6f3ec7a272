"""Command-line interface.

Subcommands wrap the library one analysis per verb: ``fit`` (point
estimates and log-partition value), ``marginal`` (density curves),
``convergence`` (temperature sweeps), ``gibbs`` (reference samples), ``cv``
(hyperparameter search) and ``maptau`` (inverse-temperature estimate).
Each verb takes only the flags it reads; any other flag is a usage error.
Structured results go out as JSON, curves and chains as CSV; every file is
written atomically (temp file + rename) as UTF-8, stdout is UTF-8 too, and
all numbers are emitted with full round-trip precision.

Exit codes: 0 success, 2 input/output or parse error, 3 numerical failure,
4 bad configuration (including command-line usage errors).
"""

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .data import _cost, _linear_term, build_problem, load_csv, standardize
from .errors import NotConverged, NumericalError, ParseError, ZeroVarianceColumn
from .gibbs import run_gibbs
from .hyper import HyperGrid, _ml_path, cross_validate, map_tau, mu_grid, mu_max, tau_grid
from .mlfit import solve_ml
from .partition import log_partition
from .posterior import (
    GridSpec,
    _make_grid,
    marginal_ml_approx,
    marginal_sp,
    posterior_sd,
)
from .saddle import solve_saddle, tau_path


_CSV_ROWS = 256  # rows formatted by one % call

# the sampler flags' dests and defaults, in run_gibbs's argument order
_SAMPLER = {"gibbs_sweeps": 10000, "burn_in": None, "thin": 1, "seed": 0}


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 4, not argparse's default 2
    def error(self, message):
        raise ValueError(message)


def _number(reject, what, kind=float):
    """argparse type: a finite kind (float or int), refused when reject holds."""

    def parse(text):
        try:
            value = kind(text)
            if math.isfinite(value) and not reject(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"wants a {what}, got {text!r}")

    return parse


_nonnegative = _number(lambda v: v < 0.0, "nonnegative number")
_positive = _number(lambda v: v <= 0.0, "positive number")
_positive_int = _number(lambda v: v < 1, "positive integer", int)


def _tau(text):
    return text if text == "map" else _positive(text)


def _pair(kinds):
    """argparse type: 'a,b' converted by the two callables in kinds."""

    def parse(text):
        try:
            a, b = text.split(",")
            return kinds[0](a), kinds[1](b)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "wants two comma-separated values"
            ) from None

    return parse


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged
    parser = _Parser(
        prog="bayonet", description=__doc__.splitlines()[0], allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, desc, no_standardize=True):
        # no prefix matching: cv must not read --tau as its --tau-grid
        p = sub.add_parser(name, help=desc, allow_abbrev=False)
        p.add_argument("input", help="CSV file with a header row")
        p.add_argument("--response", required=True, help="response column name")
        if no_standardize:
            p.add_argument(
                "--no-standardize",
                action="store_true",
                help="input columns are already centered and scaled",
            )
        p.add_argument("--lambda", dest="lam", type=_nonnegative, default=0.0)
        p.add_argument("--tol", type=_positive, default=1e-10)
        p.add_argument("--out", help="output path (marginal: path prefix)")
        return p

    def mu_tau(p):
        p.add_argument("--mu", type=_positive, required=True)
        p.add_argument(
            "--tau", type=_tau, required=True, help="inverse temperature, or 'map'"
        )

    def sampler(p):
        # a flag not given sets no attribute, so marginal can refuse one
        # given without --gibbs; _chain supplies _SAMPLER's defaults
        for dest in _SAMPLER:
            flag = "--" + dest.replace("_", "-")
            p.add_argument(flag, type=int, default=argparse.SUPPRESS)

    def grids(p, mu_default, mu_group=None):
        (mu_group or p).add_argument(
            "--mu-grid",
            type=_pair((int, float)),
            default=mu_default,
            help="N,r  (count and decay ratio)",
        )
        p.add_argument(
            "--tau-grid",
            type=_pair((int, int)),
            default=(12, 13),
            help="M,count  (decade offset and count)",
        )

    mu_tau(verb("fit", "point estimates, log partition value and MAP tau"))

    p = verb("marginal", "single-coordinate posterior density curves")
    mu_tau(p)
    sampler(p)
    p.add_argument("--coords", default="all", help="comma list or 'all'")
    p.add_argument(
        "--gibbs",
        action="store_true",
        help="also emit Gibbs histograms on matching bins",
    )
    p.add_argument(
        "--ml-curve",
        action="store_true",
        help="add the minimum-cost comparison density column",
    )

    p = verb("convergence", "temperature sweep of the partition-function gap")
    mu = p.add_mutually_exclusive_group(required=True)
    mu.add_argument("--mu", type=_positive)
    grids(p, None, mu)

    p = verb("gibbs", "reference posterior samples")
    mu_tau(p)
    sampler(p)

    p = verb("cv", "cross-validated hyperparameter search", no_standardize=False)
    grids(p, (10, 0.01))
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--screen-top", type=_positive_int, default=None)

    p = verb("maptau", "inverse-temperature estimate")
    p.add_argument("--mu", type=_positive, required=True)
    return parser


def _jsonify(obj):
    """Make obj JSON-clean: numpy to native, non-finite floats to null."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # a finite float array converts in one step; NaN and inf go
        # element by element, to null
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_text(path, text):
    if path is None:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
        sys.stdout.buffer.flush()
        return
    # an error from the temporary file names the path given, not the
    # temporary file's random name, so the message is the same every run
    try:
        _replace_with(os.path.abspath(path), text)
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc


def _replace_with(path, text):
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path), prefix="." + os.path.basename(path) + "."
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@functools.lru_cache(maxsize=None)
def _list_encoder(inner):
    # the C encoder of a flat list whose items are indented by inner
    return json.JSONEncoder(separators=(",\n" + inner, ": "))


def _json_text(obj, indent=""):
    """json.dumps(obj, indent=2) for a _jsonify'd obj, in C where it can be.

    indent makes json run its pure-Python encoder.  A list holding no list
    or dict is written in one call of the C encoder, with the newline and
    indentation as its item separator; dicts and nested lists are laid out
    here, their keys and scalars written by json.dumps.  Each indentation
    level's flat lists share one encoder.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (inner + json.dumps(k) + ": " + _json_text(v, inner) for k, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if any(isinstance(v, (list, dict)) for v in obj):
            body = ",\n".join(inner + _json_text(v, inner) for v in obj)
        else:
            body = inner + _list_encoder(inner).encode(obj)[1:-1]
        return "[\n" + body + "\n" + indent + "]"
    return json.dumps(obj)


def _write_json(path, payload):
    _write_text(path, _json_text(_jsonify(payload)) + "\n")


def _write_csv(path, header, table):
    """The 2-D float array table as CSV under header, every number %.17g.

    Names are quoted as the csv module quotes them; no %.17g number needs
    it.  nan and inf print as Python prints them.  Rows are formatted
    _CSV_ROWS at a time, one % call each, so no format string or argument
    tuple grows with the table.
    """
    head = io.StringIO()
    csv.writer(head, lineterminator="\n").writerow(header)
    rows, width = table.shape
    row = ",".join(["%.17g"] * width) + "\n"
    flat = table.ravel().tolist()
    parts = [head.getvalue()]
    for start in range(0, rows, _CSV_ROWS):
        stop = min(start + _CSV_ROWS, rows)
        parts.append((row * (stop - start)) % tuple(flat[start * width:stop * width]))
    _write_text(path, "".join(parts))


def _load_data(args):
    data, names = load_csv(args.input, args.response)
    if not args.no_standardize:
        return standardize(data), names
    try:
        std = dataclasses.replace(data, standardized=True)
    except ValueError as exc:
        raise ParseError(f"--no-standardize given but {exc}") from None
    return std, names


def _ml_stage(args, std):
    """The problem at tau = 1 and its converged ML solution."""
    prob = build_problem(std, args.lam, args.mu, 1.0)
    ml = solve_ml(prob, tol=args.tol)
    if not ml.converged:
        raise NotConverged(ml.cycles, "ML stage")
    return prob, ml


def _at_tau(args, std):
    """ML stage, then the problem at --tau (the MAP estimate for 'map')."""
    prob, ml = _ml_stage(args, std)
    tau = map_tau(std, args.lam, args.mu, ml) if args.tau == "map" else args.tau
    return prob.with_tau(tau), ml


def _fit_core(args, std):
    """Problem at --tau, ML solution and the converged stationary point."""
    prob, ml = _at_tau(args, std)
    sad = solve_saddle(prob, ml.x_hat, tol=args.tol)
    if not sad.converged:
        raise NotConverged(sad.cycles, f"stationary point at tau={prob.tau}")
    return prob, ml, sad


def cmd_fit(args):
    std, names = _load_data(args)
    prob, ml, sad = _fit_core(args, std)
    lp = log_partition(prob, sad)
    payload = {
        "predictors": names,
        "lambda": args.lam,
        "mu": prob.mu,
        "tau": prob.tau,
        "x_ml": ml.x_hat,
        "x_tau": sad.x_tau,
        "u_tau": sad.u_tau,
        "h_min": ml.h_min,
        "log_z": lp.log_z,
        "map_tau": (
            prob.tau if args.tau == "map" else map_tau(std, args.lam, prob.mu, ml)
        ),
        "cycles": {"ml": ml.cycles, "saddle": sad.cycles},
    }
    _write_json(args.out, payload)
    return 0


def _coord_list(coords, p):
    if coords == "all":
        return list(range(p))
    try:
        coords = [int(c) for c in coords.split(",")]
    except ValueError:
        raise ValueError("--coords must be 'all' or a comma list of indices")
    for j in coords:
        if not 0 <= j < p:
            raise ValueError(f"coordinate {j} out of range for p={p}")
    if len(set(coords)) != len(coords):
        raise ValueError("--coords names a coordinate more than once")
    return coords


def _marginal_one(prob, ml, sad, j, sd, args):
    """Density curve(s) for one coordinate; returns (grid, columns dict).

    sd is the coordinate's posterior sd, which sets marginal_sp's default
    grid; the caller computes the sds of all coordinates at once.
    """
    grid = _make_grid(None, float(sad.x_tau[j]), float(sd))
    curve = marginal_sp(prob, sad, j, GridSpec(points=grid), tol=args.tol)
    cols = {"density_sp": curve.density}
    if args.ml_curve:
        ml_curve = marginal_ml_approx(
            prob, ml, j, GridSpec(points=curve.grid), tol=args.tol
        )
        cols["density_ml"] = ml_curve.density
    return curve.grid, cols


def _chain(prob, ml, args):
    """The Gibbs chain from ml.x_hat under the sampler flags."""
    settings = (getattr(args, k, v) for k, v in _SAMPLER.items())
    return run_gibbs(prob, ml.x_hat, *settings)


def cmd_marginal(args):
    if not args.gibbs and _SAMPLER.keys() & vars(args).keys():
        raise ValueError("--gibbs-sweeps, --burn-in, --thin and --seed need --gibbs")
    std, names = _load_data(args)
    # p is known once the data are in: a refused list costs no fit
    coords = _coord_list(args.coords, std.p)
    prob, ml, sad = _fit_core(args, std)
    prefix = args.out if args.out is not None else "marginal"
    # the chain runs first, so settings it refuses cost no curves
    chain = _chain(prob, ml, args) if args.gibbs else None
    sds = posterior_sd(prob, sad)
    results = {j: _marginal_one(prob, ml, sad, j, sds[j], args) for j in coords}
    for j in coords:
        grid, cols = results[j]
        _write_csv(
            f"{prefix}_coord{j}.csv", ["x", *cols], np.column_stack([grid, *cols.values()])
        )
        if chain is not None:
            edges = grid
            counts, _ = np.histogram(chain.samples[:, j], bins=edges)
            dens = counts / (chain.samples.shape[0] * np.diff(edges))
            _write_csv(
                f"{prefix}_coord{j}_gibbs.csv",
                ["left", "right", "density"],
                np.column_stack([edges[:-1], edges[1:], dens]),
            )
    return 0


def cmd_convergence(args):
    std, names = _load_data(args)
    base = build_problem(std, args.lam, 1.0, 1.0)
    if args.mu is not None:
        mus = [args.mu]
    else:
        mus = list(mu_grid(mu_max(base.w), *args.mu_grid))
    taus = tau_grid(*args.tau_grid)
    [fits] = _ml_path([base], mus, args.tol)
    for (_, cycles, ok), mu in sorted(zip(fits, mus), key=lambda pair: -pair[1]):
        if not ok:
            raise NotConverged(cycles, f"ML stage at mu={mu}")
    x_ml = [x for x, _, _ in fits]
    h_min = [_cost(base.with_mu(mu), x) for x, mu in zip(x_ml, mus)]
    sols = tau_path(base, taus, init=x_ml, tol=args.tol, mus=mus)
    rows = []
    for k, sol in enumerate(sols):
        if not sol.converged:
            raise NotConverged(sol.cycles, f"tau={sol.tau}, mu={sol.mu}")
        i = k // len(taus)
        lp = log_partition(base.with_mu(sol.mu).with_tau(sol.tau), sol)
        gap = (-lp.log_z / sol.tau - h_min[i]) / base.p
        xdiff = float(np.max(np.abs(sol.x_tau - x_ml[i])))
        rows.append([sol.tau, sol.mu, gap, xdiff])
    _write_csv(args.out, ["tau", "mu", "gap", "xdiff"], np.array(rows))
    return 0


def cmd_gibbs(args):
    std, names = _load_data(args)
    prob, ml = _at_tau(args, std)
    _write_csv(args.out, names, _chain(prob, ml, args).samples)
    return 0


def cmd_cv(args):
    data, names = load_csv(args.input, args.response)
    std_all = standardize(data)
    grid = HyperGrid(
        mus=mu_grid(mu_max(_linear_term(std_all)), *args.mu_grid)[::-1].copy(),
        taus=tau_grid(*args.tau_grid),
        lam=args.lam,
    )
    report = cross_validate(
        data, grid, args.folds, args.seed, screen_top=args.screen_top, tol=args.tol
    )
    payload = {
        "folds": report.folds,
        "seed": report.seed,
        "grid": {"mus": report.mus, "taus": report.taus, "lambda": report.lam},
        "scores": report.median_scores,
        "fold_scores": report.fold_scores,
        "best": {
            "mu": report.best_mu,
            "tau": report.best_tau,
            "median_r": report.best_median,
        },
    }
    _write_json(args.out, payload)
    return 0


def cmd_maptau(args):
    std, names = _load_data(args)
    _, ml = _ml_stage(args, std)
    tau = map_tau(std, args.lam, args.mu, ml)
    payload = {
        "lambda": args.lam,
        "mu": args.mu,
        "map_tau": tau,
        "active_set": list(ml.active_set),
        "h_min": ml.h_min,
    }
    _write_json(args.out, payload)
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "marginal": cmd_marginal,
    "convergence": cmd_convergence,
    "gibbs": cmd_gibbs,
    "cv": cmd_cv,
    "maptau": cmd_maptau,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ParseError, ZeroVarianceColumn, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
