"""The benchmark's workloads: CLI requests on generated CSV files, and checks.

A request is one ``bayonet`` verb called in process through
``bayonet.cli.main(argv)``.  Every workload is a closed loop with one client
that repeats a fixed cycle of rounds; a round is a list of requests.  Each
request carries a check that any correct implementation passes, so the
checks test properties of the output, not the bytes of one version.

fit_mix      ``fit`` on 200x100, 100x400 and 300x1000 designs in equal thirds.
             ML fit, saddle solve, log Z and CSV parsing are the whole
             request; marginals, Gibbs and CV stay idle.  The thirds keep
             the median inside the 100x400 class and the tail inside the
             300x1000 class, away from class boundaries.
marginal_all ``marginal --coords all --gibbs`` on a 442x10 design: ten grid
             walks of 201 inner solves plus 10,000 Gibbs sweeps.  The outer
             fit is about a millisecond, so an outer-saddle change should
             not move this workload; an inner-solve, grid-walker or Gibbs
             change shows only here.
cv_grid      ``cv`` with 10 folds on the default 10 x 13 grid of a 442x10
             design: 1300 small warm-started solves per request, where
             per-call overhead matters more than flops.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from designs import Quadratic, make_design, write_csv

LAM = 0.1

# fit_mix design classes: label, n, p, true support size, fixed tau near the
# MAP estimate of that shape, number of designs.  Design d of a class uses
# mu = FIT_FRACS[d % 2] * mu_max and tau "map" or the fixed value; round r of
# the loop sends design r % count of every class, so a cycle is 9 rounds.
# The median sits in the 100x400 class, so that class gets the most designs
# and moves less with the seed; odd counts put the median and the tail on one
# design's repeats.
FIT_CLASSES = (
    ("200x100", 200, 100, 8, 500.0, 3),
    ("100x400", 100, 400, 10, 1000.0, 9),
    ("300x1000", 300, 1000, 15, 3000.0, 3),
)
FIT_FRACS = (0.25, 0.35)
# marginal_all and cv_grid cycle over SMALL_DESIGNS designs of this shape.
# The cost of a request varies by a fifth from design to design, so the
# median and tail are taken over many designs rather than over repeats of a
# few.
SMALL = ("442x10", 442, 10, 5)
SMALL_DESIGNS = 7
SMALL_FRAC = 0.3


class CheckFailed(Exception):
    """A request's output violates a property every correct output has."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Request:
    """One CLI call: argv for ``bayonet.cli.main`` and how to check it.

    key names the distinct request: two calls with one key must write
    byte-identical outputs.  klass is the request class of the workload.
    """

    key: str
    klass: str
    argv: list
    outputs: list
    check: object

    def read_outputs(self):
        blobs = []
        for path in self.outputs:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        return blobs


@dataclass
class Plan:
    """A workload laid out in one work directory."""

    rounds: list
    warmups: list


def _fit_check(quad, mu):
    def check(blobs):
        d = json.loads(blobs[0])
        x = d["x_tau"]
        u_ret = d["u_tau"]
        _require(None not in x and None not in u_ret, "non-finite x_tau/u_tau")
        x = np.array(x)
        u_ret = np.array(u_ret)
        _require(d["mu"] == mu, "mu echoed wrongly")
        tau = d["tau"]
        _require(tau is not None and tau > 0.0, "tau not positive")
        u = quad.w - quad.c @ x
        _require(float(np.max(np.abs(u - u_ret))) <= 1e-8, "u_tau != w - C x_tau")
        res = (mu * mu - u_ret * u_ret) * x - u_ret / tau
        _require(float(np.max(np.abs(res))) <= 1e-8, "stationarity residual > 1e-8")
        _require(float(np.max(np.abs(u))) < mu, "|u| not inside the mu box")
        _require(d["log_z"] is not None and math.isfinite(d["log_z"]), "log_z not finite")

    return check


def _csv_columns(blob):
    lines = blob.decode().split()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0].split(","), rows


def _marginal_check(p):
    def check(blobs):
        _require(len(blobs) == 2 * p, "missing curve files")
        for curve, hist in zip(blobs[0::2], blobs[1::2]):
            header, rows = _csv_columns(curve)
            _require(header[:2] == ["x", "density_sp"], "curve header")
            grid, dens = rows[:, 0], rows[:, 1]
            _require(np.all(np.isfinite(rows)), "non-finite curve value")
            _require(np.all(np.diff(grid) > 0.0), "grid not ascending")
            _require(np.all(dens >= 0.0), "negative density")
            _require(abs(float(np.trapezoid(dens, grid)) - 1.0) <= 1e-9,
                     "curve not trapezoid-normalized")
            header, rows = _csv_columns(hist)
            _require(header == ["left", "right", "density"], "histogram header")
            _require(np.all(np.isfinite(rows)), "non-finite histogram value")
            _require(np.all(rows[:, 2] >= 0.0), "negative histogram density")
            mass = float(np.sum(rows[:, 2] * (rows[:, 1] - rows[:, 0])))
            _require(mass <= 1.0 + 1e-9, "histogram mass above 1")

    return check


def _cv_check(blobs):
    d = json.loads(blobs[0])
    scores = [v for row in d["scores"] for v in row if v is not None]
    folds = [v for f in d["fold_scores"] for row in f for v in row if v is not None]
    _require(scores, "every cell failed")
    _require(all(-1.0 <= v <= 1.0 for v in scores + folds), "score outside [-1, 1]")
    best = d["best"]
    _require(best["median_r"] is not None and math.isfinite(best["median_r"]),
             "best cell not finite")
    _require(best["median_r"] == max(scores), "best cell is not the maximum")
    _require(best["mu"] in d["grid"]["mus"] and best["tau"] in d["grid"]["taus"],
             "best cell not on the grid")


def _design_file(workdir, name, key, shape):
    n, p, k = shape
    a, y = make_design(n, p, k, key)
    path = os.path.join(workdir, f"{name}.csv")
    write_csv(path, a, y)
    return path, Quadratic(a, y, LAM)


def _fit_request(workdir, key, klass, path, quad, frac, tau):
    mu = frac * quad.mu_max
    out = os.path.join(workdir, f"{key}.json")
    argv = ["fit", path, "--response", "y", "--lambda", repr(LAM),
            "--mu", repr(mu), "--tau", tau, "--out", out]
    return Request(key, klass, argv, [out], _fit_check(quad, mu))


def _marginal_request(workdir, key, path, quad, coords, sweeps):
    prefix = os.path.join(workdir, key)
    argv = ["marginal", path, "--response", "y", "--lambda", repr(LAM),
            "--mu", repr(SMALL_FRAC * quad.mu_max), "--tau", "map",
            "--coords", coords, "--gibbs", "--gibbs-sweeps", str(sweeps),
            "--out", prefix]
    p = quad.w.size
    js = range(p) if coords == "all" else [int(c) for c in coords.split(",")]
    outs = []
    for j in js:
        outs += [f"{prefix}_coord{j}.csv", f"{prefix}_coord{j}_gibbs.csv"]
    return Request(key, "442x10", argv, outs, _marginal_check(len(js)))


def _cv_request(workdir, key, path, extra):
    out = os.path.join(workdir, f"{key}.json")
    argv = ["cv", path, "--response", "y", "--lambda", repr(LAM),
            "--seed", "0", *extra, "--out", out]
    return Request(key, "442x10", argv, [out], _cv_check)


def build(name, seed, workdir):
    """Generate the inputs of workload ``name`` for ``seed`` in workdir."""
    if name == "fit_mix":
        pools = []
        for c, (label, n, p, k, tau_fixed, count) in enumerate(FIT_CLASSES):
            pool = []
            for d in range(count):
                path, quad = _design_file(workdir, f"{label}_{d}", (seed, c, d), (n, p, k))
                tau = "map" if (d // 2) % 2 == 0 else repr(tau_fixed)
                pool.append(_fit_request(
                    workdir, f"fit_{label}_{d}", label, path, quad, FIT_FRACS[d % 2], tau
                ))
            pools.append(pool)
        cycle = max(len(pool) for pool in pools)
        rounds = [[pool[r % len(pool)] for pool in pools] for r in range(cycle)]
        return Plan(rounds=rounds, warmups=list(rounds[0]))
    label, n, p, k = SMALL
    rounds = []
    for d in range(SMALL_DESIGNS):
        name_d = f"{label}_{d}"
        if name == "marginal_all":
            path, quad = _design_file(workdir, name_d, (seed, 10, d), (n, p, k))
            rounds.append([_marginal_request(workdir, f"marginal_{d}", path, quad, "all", 10000)])
        elif name == "cv_grid":
            path, _ = _design_file(workdir, name_d, (seed, 20, d), (n, p, k))
            rounds.append([_cv_request(workdir, f"cv_{d}", path, ["--folds", "10"])])
        else:
            raise ValueError(f"unknown workload {name!r}")
    return Plan(rounds=rounds, warmups=list(rounds[0]))


def coverage(seed, workdir):
    """Cheap requests that between them reach every traced layer.

    A traced run takes a layer's numbers from these only for layers its own
    workload never reaches, so every per-layer metric is measured.
    """
    label, n, p, k = SMALL
    path, quad = _design_file(workdir, "coverage", (seed, 30), (n, p, k))
    return [
        _fit_request(workdir, "cover_fit", label, path, quad, SMALL_FRAC, "map"),
        _marginal_request(workdir, "cover_marginal", path, quad, "0", 500),
        _cv_request(workdir, "cover_cv", path,
                    ["--folds", "3", "--mu-grid", "4,0.1", "--tau-grid", "12,6"]),
    ]
