"""Posterior summaries: expectations, standard deviations, marginal densities.

Marginal densities come in two flavors.  The main one treats the remaining
p-1 coordinates with the same stationary-phase machinery as the full
problem, so each grid point costs one small stationary-point solve: damped
Newton steps warmed by the neighbor's solution, on the n x n core when the
sub-problem is wider than the design is tall.  The cheaper comparison
variant replaces the inner log partition by a penalized minimum; it is
useful precisely because it is visibly wrong for coordinates near their
inclusion boundary, which is worth demonstrating.  With p = 1 there is no
inner problem and both give the exact density.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import _cost_arrays
from .errors import GridTooSmall, NotConverged
from .exact1d import _log_density
from .mlfit import _ml_cd
# log_partition is not called here; perfbench/tracing.py wraps this binding
from .partition import _check_saddle, _core, _CPlusD, _d_diag, log_partition
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
    """Posterior density of coordinate ``coordinate`` on a grid.

    Both marginal_sp and marginal_ml_approx return one.  density holds the
    values at the points of grid, scaled to integrate to 1 over grid by the
    trapezoid rule.
    """

    coordinate: int
    grid: np.ndarray
    density: np.ndarray


def expectation(problem, saddle):
    """Posterior mean vector; this is the stationary iterate itself."""
    _check_saddle(problem, saddle)
    return saddle.x_tau.copy()


def posterior_sd(problem, saddle):
    """Gaussian-factor standard deviation of each coordinate.

    Taken from the diagonal of (C + D)^{-1}/(2 tau); this is the width scale
    the marginal grids are built on, not an exact posterior moment.  The
    diagonal comes from the same factorization route as log det(C + D).
    """
    _check_saddle(problem, saddle)
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


def _curve(problem, j, grid, center, x_start, inner):
    """Trapezoid-normalized MarginalCurve of coordinate j on grid.

    The log density is the coordinate's own terms plus inner(g, x_seed) ->
    (log value, x), up to a constant the normalization removes.  The walk
    starts at the point nearest center from x_start, goes right, then goes
    left again from the center point's solution; every other solve is
    warm-started at its neighbor's x.  With p = 1 there is no inner problem
    and the own terms are the exact log density.
    """
    log_dens = _log_density(
        problem.c[j, j], problem.w[j], problem.mu, problem.tau, grid
    )
    if problem.p > 1:
        start = int(np.argmin(np.abs(grid - center)))
        x_seed = x_start
        for k in range(start, grid.size):
            value, x_seed = inner(grid[k], x_seed)
            log_dens[k] += value
            if k == start:
                x_center = x_seed
        x_seed = x_center
        for k in range(start - 1, -1, -1):
            value, x_seed = inner(grid[k], x_seed)
            log_dens[k] += value
    dens = np.exp(log_dens - np.max(log_dens))
    return MarginalCurve(
        coordinate=int(j), grid=grid, density=dens / float(np.trapezoid(dens, grid))
    )


def marginal_sp(problem, saddle, j, grid_spec=None, tol=1e-10):
    """Stationary-phase marginal density of coordinate j, for any p.

    Fixing x_j = g leaves a (p-1)-dimensional problem of the same form with
    shifted linear term w - g * C[:, j]; its log partition plus the
    coordinate's own Gaussian and l1 terms is the log density at g, up to a
    constant that the trapezoid normalization removes.  Grid points are
    solved outward from the posterior-mean center in both directions,
    warm-starting each inner solve at its neighbor's solution; at the center
    the restriction of the full stationary point is already stationary, so
    that solve is free.  With p = 1 the curve is the exact density on the
    grid.  saddle must be converged at problem's tau (else NotConverged or
    ValueError); a grid point whose inner solve exhausts its cycle budget
    raises NotConverged.
    """
    if not 0 <= j < problem.p:
        raise ValueError(f"coordinate {j} out of range")
    sd = posterior_sd(problem, saddle)[j]
    grid = _make_grid(grid_spec, float(saddle.x_tau[j]), float(sd))
    idx, c_sub, c_col, w_sub, factor_sub = _coordinate_split(problem, j)
    mu, tau, lam = problem.mu, problem.tau, problem.lam

    def inner(g, x_seed):
        w_eff = w_sub - g * c_col
        x, u, cycles, _, ok = _saddle_cd(
            c_sub, w_eff, mu, tau, x_seed, tol, lam, factor_sub
        )
        if not ok:
            raise NotConverged(cycles, f"marginal coordinate {j}, grid value {g}")
        e, ld, pref, _ = _core(c_sub, w_eff, mu, tau, x, u, lam, factor_sub)
        return e + ld + pref, x

    return _curve(problem, j, grid, saddle.x_tau[j], saddle.x_tau[idx], inner)


def marginal_ml_approx(problem, ml, j, grid_spec=None, tol=1e-10):
    """Minimum-cost comparison marginal for coordinate j, for any p.

    Same structure as marginal_sp but the inner log partition is replaced
    by -tau times the inner penalized minimum at x_j = g, and the grid is
    centered on the ML value.  Cheap, and exact in neither tails nor width
    when p > 1; kept as the comparison baseline.  With p = 1 the curve is
    the exact density on the grid.
    """
    if not 0 <= j < problem.p:
        raise ValueError(f"coordinate {j} out of range")
    if not ml.converged:
        raise NotConverged(ml.cycles, "ML solution not converged")
    sd = 1.0 / math.sqrt(2.0 * problem.tau * problem.c[j, j])
    grid = _make_grid(grid_spec, float(ml.x_hat[j]), sd)
    idx, c_sub, c_col, w_sub, _ = _coordinate_split(problem, j)
    mu, tau = problem.mu, problem.tau

    def inner(g, x_seed):
        w_eff = w_sub - g * c_col
        x_in, cycles, ok = _ml_cd(c_sub, w_eff, mu, x_seed, tol)
        if not ok:
            raise NotConverged(
                cycles, f"inner minimizer, coordinate {j}, grid value {g}"
            )
        return -tau * _cost_arrays(c_sub, w_eff, mu, x_in), x_in

    return _curve(problem, j, grid, ml.x_hat[j], ml.x_hat[idx], inner)
