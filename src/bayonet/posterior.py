"""Posterior summaries: expectations, standard deviations, marginal densities.

Marginal densities come in two flavors.  The main one treats the remaining
p-1 coordinates with the same stationary-phase machinery as the full
problem, so each grid point costs one small stationary-point solve: damped
Newton steps on the n x n core when the sub-problem is wider than the
design is tall.  The stationary point moves smoothly with the grid value,
so each solve starts from a tangent prediction off its neighbor, and the
factor of C_sub + D behind the neighbor's log det is the one that
prediction needs: most grid points converge at once and build one factor.
The cheaper comparison variant replaces the inner log partition by a
penalized minimum; it is useful precisely because it is visibly wrong for
coordinates near their inclusion boundary, which is worth demonstrating.
With p = 1 there is no inner problem and both give the exact density.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import _cost
from .errors import NotConverged
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
    inv_diag = _CPlusD(problem, d).inv_diag()
    return np.sqrt(inv_diag / (2.0 * problem.tau))


def _make_grid(spec, center, sd):
    if spec is None or spec.points is None:
        hw = _GRID_HALF_WIDTH_SDS * sd
        if not hw > 0.0:
            raise ValueError("grid half-width must be positive")
        return center + np.linspace(-hw, hw, _GRID_POINTS)
    pts = np.asarray(spec.points, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ValueError("explicit grid needs at least 2 points")
    if not np.isfinite(pts).all():
        raise ValueError("explicit grid must be finite")
    if np.any(np.diff(pts) <= 0.0):
        raise ValueError("explicit grid must be strictly ascending")
    return pts


def _curve(problem, j, grid, center, seed, inner):
    """Trapezoid-normalized MarginalCurve of coordinate j on grid.

    The log density is the coordinate's own terms plus inner(g, state) ->
    (log value, state), up to a constant the normalization removes; state
    is what a solve hands its neighbor.  The walk starts at the point
    nearest center from seed, goes right, then goes left again from the
    center point's state.  With p = 1 there is no inner problem and the own
    terms are the exact log density.
    """
    log_dens = _log_density(
        problem._diag[j], problem.w[j], problem.mu, problem.tau, grid
    )
    if problem.p > 1:
        start = int(np.argmin(np.abs(grid - center)))
        state = seed
        for k in range(start, grid.size):
            value, state = inner(grid[k], state)
            log_dens[k] += value
            if k == start:
                center_state = state
        state = center_state
        for k in range(start - 1, -1, -1):
            value, state = inner(grid[k], state)
            log_dens[k] += value
    dens = np.exp(log_dens - np.max(log_dens))
    return MarginalCurve(
        coordinate=int(j), grid=grid, density=dens / float(np.trapezoid(dens, grid))
    )


def _fix_coordinate(problem, j):
    # the other coordinates, the problem on them and their column of C
    if not 0 <= j < problem.p:
        raise ValueError(f"coordinate {j} out of range")
    others = np.delete(np.arange(problem.p), j)
    return others, problem._restrict(others), problem._col(j)[others]


def marginal_sp(problem, saddle, j, grid_spec=None, tol=1e-10):
    """Stationary-phase marginal density of coordinate j, for any p.

    Fixing x_j = g leaves a (p-1)-dimensional problem of the same form with
    shifted linear term w_eff = w - g * C[:, j]; its log partition plus the
    coordinate's own Gaussian and l1 terms is the log density at g, up to a
    constant that the trapezoid normalization removes.  Grid points are
    solved outward from the posterior-mean center in both directions.  At
    the center the restriction of the full stationary point is already
    stationary, so that solve takes only its polish step.

    Every other solve starts from its neighbor's solution x plus the
    tangent step (C_sub + D)^{-1} (w_eff' - w_eff), the derivative of the
    stationary point in the linear term, plus the neighbor's own tangent
    error, which on an evenly spaced grid is the next step's second-order
    term.  The factor of C_sub + D the step solves with is the one behind
    the neighbor's log det: the inner solve's polish-step factor, built at
    its converged point where a/b = D up to the tolerance.  Every converged
    solve hands one back, so a grid point whose prediction meets the
    tolerance builds one factor.  The inner problems are restrictions of
    problem (PenalizedProblem._restrict), so those still wider than n keep
    the n x n determinant route.

    With p = 1 the curve is the exact density on the grid.  saddle must be
    converged at problem's tau (else NotConverged or ValueError); a grid
    point whose inner solve exhausts its cycle budget raises NotConverged.
    An explicit grid_spec skips the posterior sds, which only lay out the
    default grid.
    """
    others, sub, c_col = _fix_coordinate(problem, j)
    _check_saddle(problem, saddle)
    explicit = grid_spec is not None and grid_spec.points is not None
    sd = None if explicit else float(posterior_sd(problem, saddle)[j])
    grid = _make_grid(grid_spec, float(saddle.x_tau[j]), sd)

    def inner(g, state):
        x, c_plus_d, w_prev, tan_err = state
        predicted = c_plus_d is not None
        at_g = sub._replace(w=sub.w - g * c_col)
        x_tan = x + c_plus_d.solve(at_g.w - w_prev) if predicted else x
        x, u, cycles, _, ok, c_plus_d = _saddle_cd(at_g, x_tan + tan_err, tol)
        if not ok:
            raise NotConverged(cycles, f"marginal coordinate {j}, grid value {g}")
        e, ld, pref, _ = _core(at_g, x, u, c_plus_d)
        tan_err = x - x_tan if predicted else 0.0
        return e + ld + pref, (x, c_plus_d, at_g.w, tan_err)

    seed = (saddle.x_tau[others], None, None, 0.0)
    return _curve(problem, j, grid, saddle.x_tau[j], seed, inner)


def marginal_ml_approx(problem, ml, j, grid_spec=None, tol=1e-10):
    """Minimum-cost comparison marginal for coordinate j, for any p.

    Same structure as marginal_sp but the inner log partition is replaced
    by -tau times the inner penalized minimum at x_j = g, and the grid is
    centered on the ML value.  Cheap, and exact in neither tails nor width
    when p > 1; kept as the comparison baseline.  With p = 1 the curve is
    the exact density on the grid.
    """
    others, sub, c_col = _fix_coordinate(problem, j)
    if not ml.converged:
        raise NotConverged(ml.cycles, "ML solution not converged")
    sd = 1.0 / math.sqrt(2.0 * problem.tau * problem._diag[j])
    grid = _make_grid(grid_spec, float(ml.x_hat[j]), sd)

    def inner(g, x_prev):
        at_g = sub._replace(w=sub.w - g * c_col)
        x_in, cycles, ok = _ml_cd(at_g, x_prev, tol)
        if not ok:
            raise NotConverged(
                cycles, f"inner minimizer, coordinate {j}, grid value {g}"
            )
        return -problem.tau * _cost(at_g, x_in), x_in

    return _curve(problem, j, grid, ml.x_hat[j], ml.x_hat[others], inner)
