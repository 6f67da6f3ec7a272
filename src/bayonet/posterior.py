"""Posterior summaries: expectations, marginal densities, predictive means.

Marginal densities come in two flavors.  The main one treats the remaining
p-1 coordinates with the same stationary-phase machinery as the full
problem, so each grid point costs one small stationary-point solve: damped
Newton steps warmed by the neighbor's solution, on the n x n core when the
sub-problem is wider than the design is tall.  The cheaper comparison
variant replaces the inner log-partition ratio by a difference of penalized
minima; it is useful precisely because it is visibly wrong for coordinates
near their inclusion boundary, which is worth demonstrating.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import _cost_arrays
from .errors import GridTooSmall, NotConverged
from .mlfit import _ml_cd
from .partition import _core, _CPlusD, _d_diag, log_partition
from .saddle import _saddle_cd

_GRID_POINTS = 201
_GRID_HALF_WIDTH_SDS = 6.0


@dataclass(frozen=True)
class GridSpec:
    """How to lay out a marginal-density grid.

    points, when given, is used verbatim (must be ascending).  Otherwise the
    grid is 201 equally spaced values over the coordinate's posterior
    location +/- 6 posterior standard deviations.
    """

    points: np.ndarray | None = None


@dataclass(frozen=True)
class MarginalCurve:
    """Single-coordinate posterior density on a grid.

    density integrates to 1 over the grid by the trapezoid rule;
    log_density_unnorm keeps the log values before that normalization.  They
    are already offset by the full problem's leading-order normalizer:
    marginal_sp subtracts the outer log Z, and marginal_ml_approx adds
    tau * h_min, the unconstrained penalized minimum.
    """

    coordinate: int
    grid: np.ndarray
    log_density_unnorm: np.ndarray
    density: np.ndarray
    method: str


def expectation(problem, saddle):
    """Posterior mean vector; this is the stationary iterate itself."""
    if not saddle.converged:
        raise NotConverged(saddle.cycles, "stationary point not converged")
    return saddle.x_tau.copy()


def predictive_mean(problem, saddle, a):
    """Posterior predictive mean of a new response with predictor row a."""
    a = np.asarray(a, dtype=float)
    if a.shape != (problem.p,):
        raise ValueError(f"a must have length {problem.p}")
    if not saddle.converged:
        raise NotConverged(saddle.cycles, "stationary point not converged")
    return float(a @ saddle.x_tau)


def posterior_sd(problem, saddle):
    """Gaussian-factor standard deviation of each coordinate.

    Taken from the diagonal of (C + D)^{-1}/(2 tau); this is the width scale
    the marginal grids are built on, not an exact posterior moment.  The
    diagonal comes from the same factorization route as log det(C + D).
    """
    d = _d_diag(saddle.u_tau, problem.mu, problem.tau)
    inv_diag = _CPlusD(problem.c, d, problem.lam, problem.low_rank_factor).inv_diag()
    return np.sqrt(inv_diag / (2.0 * problem.tau))


def _make_grid(spec, center, sd):
    if spec is None or spec.points is None:
        hw = _GRID_HALF_WIDTH_SDS * sd
        if not hw > 0.0:
            raise ValueError("grid half-width must be positive")
        return center + np.linspace(-hw, hw, _GRID_POINTS)
    pts = np.asarray(spec.points, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise GridTooSmall("explicit grid needs at least 2 points")
    if np.any(np.diff(pts) <= 0.0):
        raise ValueError("explicit grid must be strictly ascending")
    return pts


def _normalize(j, grid, log_unnorm, method):
    dens = np.exp(log_unnorm - np.max(log_unnorm))
    total = float(np.trapezoid(dens, grid))
    return MarginalCurve(
        coordinate=int(j),
        grid=grid,
        log_density_unnorm=log_unnorm,
        density=dens / total,
        method=method,
    )


def _coordinate_split(problem, j):
    idx = np.array([k for k in range(problem.p) if k != j], dtype=int)
    c_sub = problem.c[np.ix_(idx, idx)]
    c_col = problem.c[idx, j]
    w_sub = problem.w[idx]
    factor_sub = (
        problem.low_rank_factor[:, idx]
        if problem.low_rank_factor is not None
        else None
    )
    return idx, c_sub, c_col, w_sub, factor_sub


def _self_terms(problem, j, g):
    cjj = problem.c[j, j]
    return -problem.tau * (
        cjj * g * g - 2.0 * problem.w[j] * g + 2.0 * problem.mu * abs(g)
    )


def _walk_grid(grid, center, x_start, solve):
    """Values of solve(g, x_seed) -> (value, x) at every grid point.

    The walk starts at the point nearest center from x_start, goes right,
    then goes left again from the center point's solution; every other solve
    is warm-started at its neighbor's x.
    """
    values = np.empty(grid.size)
    start = int(np.argmin(np.abs(grid - center)))
    x_seed = x_start
    for k in range(start, grid.size):
        values[k], x_seed = solve(grid[k], x_seed)
        if k == start:
            x_center = x_seed
    x_seed = x_center
    for k in range(start - 1, -1, -1):
        values[k], x_seed = solve(grid[k], x_seed)
    return values


def marginal_sp(problem, saddle, j, grid_spec=None, tol=1e-10):
    """Stationary-phase marginal density of coordinate j.

    Fixing x_j = g leaves a (p-1)-dimensional problem of the same form with
    shifted linear term w - g * C[:, j]; its log partition, normalized by the
    full problem's, gives the marginal up to the coordinate's own Gaussian
    and l1 factors.  Grid points are solved outward from the posterior-mean
    center in both directions, warm-starting each inner solve at its
    neighbor's solution; at the center the restriction of the full
    stationary point is already stationary, so that solve is free.  A grid
    point whose inner solve exhausts its cycle budget raises NotConverged.
    """
    if problem.p < 2:
        raise ValueError("marginal_sp needs p >= 2; use the exact single-"
                         "coordinate formulas instead")
    if not 0 <= j < problem.p:
        raise ValueError(f"coordinate {j} out of range")
    outer = log_partition(problem, saddle).log_z
    sd = posterior_sd(problem, saddle)[j]
    grid = _make_grid(grid_spec, float(saddle.x_tau[j]), float(sd))
    idx, c_sub, c_col, w_sub, factor_sub = _coordinate_split(problem, j)
    mu, tau, lam = problem.mu, problem.tau, problem.lam

    def log_density(g, x_seed):
        w_eff = w_sub - g * c_col
        x, u, cycles, _, ok = _saddle_cd(
            c_sub, w_eff, mu, tau, x_seed, tol, lam, factor_sub
        )
        if not ok:
            raise NotConverged(cycles, f"marginal coordinate {j}, grid value {g}")
        e, ld, pref, _ = _core(c_sub, w_eff, mu, tau, x, u, lam, factor_sub)
        return _self_terms(problem, j, g) + (e + ld + pref) - outer, x

    log_unnorm = _walk_grid(grid, saddle.x_tau[j], saddle.x_tau[idx], log_density)
    return _normalize(j, grid, log_unnorm, "stationary_phase")


def marginal_ml_approx(problem, ml, j, grid_spec=None, tol=1e-10):
    """Minimum-cost comparison marginal for coordinate j.

    Same structure as marginal_sp but the inner log-partition ratio is
    replaced by -tau times the difference of constrained and unconstrained
    penalized minima.  Cheap, and exact in neither tails nor width; kept as
    the comparison baseline.
    """
    if problem.p < 2:
        raise ValueError("marginal_ml_approx needs p >= 2")
    if not 0 <= j < problem.p:
        raise ValueError(f"coordinate {j} out of range")
    if not ml.converged:
        raise NotConverged(ml.cycles, "ML solution not converged")
    sd = 1.0 / math.sqrt(2.0 * problem.tau * problem.c[j, j])
    grid = _make_grid(grid_spec, float(ml.x_hat[j]), sd)
    idx, c_sub, c_col, w_sub, _ = _coordinate_split(problem, j)
    mu, tau = problem.mu, problem.tau

    def log_density(g, x_seed):
        w_eff = w_sub - g * c_col
        x_in, cycles, ok = _ml_cd(c_sub, w_eff, mu, x_seed, tol)
        if not ok:
            raise NotConverged(
                cycles, f"inner minimizer, coordinate {j}, grid value {g}"
            )
        h_in = _cost_arrays(c_sub, w_eff, mu, x_in)
        return _self_terms(problem, j, g) - tau * h_in + tau * ml.h_min, x_in

    log_unnorm = _walk_grid(grid, ml.x_hat[j], ml.x_hat[idx], log_density)
    return _normalize(j, grid, log_unnorm, "ml_approx")
