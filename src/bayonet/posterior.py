"""Posterior summaries: expectations, standard deviations, marginal densities.

Marginal densities come in two flavors.  The main one treats the remaining
p-1 coordinates with the same stationary-phase machinery as the full
problem: the log density at a grid value is the coordinate's own exact
terms plus the inner log partition V, one small stationary-point solve
(damped Newton steps, on the n x n core when the sub-problem is wider than
the design is tall).  V is smooth, so it is solved on 5 to 65 nested
Chebyshev-Lobatto nodes and interpolated onto the grid, or at every grid
point when the levels disagree.  The stationary point moves smoothly with
the fixed value, so each solve starts from a tangent prediction off its
neighbor, on the factor of C_sub + D behind the neighbor's log det.
The cheaper comparison variant replaces the inner log partition by a
penalized minimum at every grid point; it is useful precisely because it
is visibly wrong for coordinates near their inclusion boundary, which is
worth demonstrating.  With p = 1 there is no inner problem and both give
the exact density.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import _cost, _positive
from .errors import NotConverged, NumericalError
from .exact1d import _log_density
from .mlfit import _ml_cd
# log_partition is not called here; perfbench/tracing.py wraps this binding
from .partition import _check_saddle, _core, log_partition
from .saddle import _saddle_cd

_GRID_POINTS = 201
_GRID_HALF_WIDTH_SDS = 6.0
# nested Chebyshev-Lobatto levels for the inner log Z, and how closely two
# levels' normalized densities must agree, relative to the peak (or 1e3 * tol,
# or _ROUNDING times the largest log-density term, if either is wider)
_LEVELS = (5, 9, 17, 33, 65)
_AGREE = 1e-7
_ROUNDING = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class GridSpec:
    """An explicit marginal-density grid: points, used verbatim (at least
    2, finite and strictly ascending)."""

    points: np.ndarray


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
    diagonal is read from the factor behind log det(C + D) in log Z by one
    dpotri inverse, n x n and one n x p product when p > n.
    """
    _check_saddle(problem, saddle)
    factor = _core(problem, saddle.x_tau, saddle.u_tau)[1]
    return np.sqrt(factor.inv_diag() / (2.0 * problem.tau))


def _make_grid(spec, center, sd):
    if spec is None:
        hw = _GRID_HALF_WIDTH_SDS * sd
        if 0.0 < hw < math.inf:
            grid = center + np.linspace(-hw, hw, _GRID_POINTS)
            if (np.diff(grid) > 0.0).all():
                return grid
        # at an extreme tau the sd underflows, overflows or is below the
        # spacing of the floats near center
        raise NumericalError(f"posterior sd {sd!r} lays out no grid around {center!r}")
    pts = np.asarray(spec.points, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ValueError("explicit grid needs at least 2 points")
    if not np.isfinite(pts).all():
        raise ValueError("explicit grid must be finite")
    if np.any(np.diff(pts) <= 0.0):
        raise ValueError("explicit grid must be strictly ascending")
    return pts


def _walk(points, center, seed, inner):
    """inner(g, state) -> (value, state) at every point, center-out.

    state is what a solve hands its neighbor.  The walk starts at the point
    nearest center from seed, goes right, then goes left again from the
    center point's state.  Returns the values on points.
    """
    values = np.empty(points.size)
    start = int(np.argmin(np.abs(points - center)))
    state = seed
    for k in range(start, points.size):
        values[k], state = inner(points[k], state)
        if k == start:
            center_state = state
    state = center_state
    for k in range(start - 1, -1, -1):
        values[k], state = inner(points[k], state)
    return values


def _own_terms(problem, j, grid):
    # the coordinate's own Gaussian and l1 terms: with p = 1, the exact
    # log density up to a constant
    return _log_density(problem._diag[j], problem.w[j], problem.mu, problem.tau, grid)


def _curve(j, grid, log_dens):
    # the trapezoid normalization removes any constant in log_dens
    dens = np.exp(log_dens - np.max(log_dens))
    return MarginalCurve(
        coordinate=int(j), grid=grid, density=dens / float(np.trapezoid(dens, grid))
    )


def _lobatto(lo, hi, m):
    """The m Chebyshev-Lobatto nodes of [lo, hi], ascending, ends exact."""
    nodes = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.pi * np.arange(m) / (m - 1))
    nodes[0], nodes[-1] = lo, hi
    return nodes


def _barycentric(nodes, values, x):
    """The polynomial through (nodes, values) at x; nodes Chebyshev-Lobatto.

    Second barycentric form with the Lobatto weights (-1)^i, halved at both
    ends (Berrut & Trefethen 2004); an x that is a node takes its value.
    """
    weights = (-1.0) ** np.arange(nodes.size)
    weights[[0, -1]] *= 0.5
    diff = x[:, None] - nodes[None, :]
    hit_x, hit_node = np.nonzero(diff == 0.0)
    diff[hit_x, hit_node] = 1.0
    terms = weights / diff
    out = (terms @ values) / terms.sum(axis=1)
    out[hit_x] = values[hit_node]
    return out


def _fix_coordinate(problem, j):
    # the other coordinates, the problem on them and their entries of column
    # j of C, read as C e_j: every other term of that product is an exact 0
    if not 0 <= j < problem.p:
        raise ValueError(f"coordinate {j} out of range")
    others = np.delete(np.arange(problem.p), j)
    unit = np.zeros(problem.p)
    unit[j] = 1.0
    return others, problem._restrict(others), problem._matvec(unit)[others]


def marginal_sp(problem, saddle, j, grid_spec=None, tol=1e-10):
    """Stationary-phase marginal density of coordinate j, for any p.

    Fixing x_j = g leaves a (p-1)-dimensional problem of the same form with
    shifted linear term w_eff = w - g * C[:, j]; its log partition V(g) plus
    the coordinate's own Gaussian and l1 terms is the log density at g, up
    to a constant that the trapezoid normalization removes.  The own terms
    are exact on the grid and carry the kink at 0; V is smooth in g.

    So V is solved on nested Chebyshev-Lobatto nodes spanning the grid, 5,
    then 9, 17, 33 and 65 of them, each level reusing the solves of the one
    before, and put onto the grid by barycentric interpolation.  The curve
    is the first level whose normalized density agrees with the level
    before within max(1e-7, 1e3 * tol) of its peak, as node values are only
    as accurate as tol, or within 4 * eps times the largest log-density
    term on the grid, own or V, if that is wider.  A density is exp of its
    log density less the peak's, so a few ulps of the log terms' size are
    its relative rounding, whatever the inner tol: an inner log Z of 3.3e8
    puts consecutive levels 1.1e-7 to 2.2e-7 of the peak apart.  When 65
    nodes still disagree, or the grid has too few points for two levels, V
    is solved at every grid point instead.

    Node sets and grid points are walked outward from the point nearest
    the posterior mean.  The first solve starts from the restriction of the
    full stationary point, which is stationary at g = x_tau[j].  Every other
    solve starts from its neighbor's solution x plus the tangent step
    (C_sub + D)^{-1} (w_eff' - w_eff), the derivative of the stationary
    point in the linear term.  The factor of C_sub + D that step solves
    with is the one behind the neighbor's log det, built at the neighbor's
    polished solution.  (The polish step's own factor predates the step;
    log dets taken from it put near-transition curves at 100 and 1e4 x MAP
    tau 3e-6 to 8e-6 of the peak off.)  The inner problems are
    restrictions of problem (PenalizedProblem._restrict) and C[:, j] is
    _matvec of the unit vector e_j, so those still wider than n form no C
    and keep the n x n determinant route.

    With p = 1 the curve is the exact density on the grid.  saddle must be
    converged at problem's mu and tau (else NotConverged or ValueError) and
    tol positive and finite (else ValueError, before any solve); an inner
    solve that exhausts its cycle budget raises NotConverged.  With no
    grid_spec the grid is 201 equally spaced values over the coordinate's
    posterior location +/- 6 posterior standard deviations; a default grid
    the sds cannot lay out raises NumericalError.  An explicit grid_spec
    skips the posterior sds, which only lay out the default grid.
    """
    _positive("tol", tol)
    others, sub, c_j = _fix_coordinate(problem, j)
    _check_saddle(problem, saddle)
    explicit = grid_spec is not None
    sd = None if explicit else float(posterior_sd(problem, saddle)[j])
    grid = _make_grid(grid_spec, float(saddle.x_tau[j]), sd)
    log_dens = _own_terms(problem, j, grid)
    if problem.p == 1:
        return _curve(j, grid, log_dens)
    # nested levels share nodes, and the grid's ends are nodes: each point
    # is solved once
    solved = {}

    def inner(g, state):
        if g in solved:
            return solved[g]
        x, c_plus_d, w_prev = state
        at_g = sub._replace(w=sub.w - g * c_j)
        if c_plus_d is not None:
            x = x + c_plus_d.solve(at_g.w - w_prev)
        [sol] = _saddle_cd(at_g, x, tol)
        if not sol.converged:
            raise NotConverged(sol.cycles, f"marginal coordinate {j}, grid value {g}")
        lp, c_plus_d = _core(at_g, sol.x_tau, sol.u_tau)
        solved[g] = out = (lp.log_z, (sol.x_tau, c_plus_d, at_g.w))
        return out

    center, seed = saddle.x_tau[j], (saddle.x_tau[others], None, None)
    # levels smaller than the grid; one level alone has nothing to be
    # checked against, and walking the grid costs no more
    levels = [m for m in _LEVELS if m < grid.size]
    if len(levels) < 2:
        levels = []
    fine = _lobatto(grid[0], grid[-1], _LEVELS[-1])
    agree = max(_AGREE, 1e3 * tol)
    own_size = float(np.max(np.abs(log_dens)))
    curve = None
    for m in levels:
        nodes = fine[:: (fine.size - 1) // (m - 1)]
        values = _barycentric(nodes, _walk(nodes, center, seed, inner), grid)
        prev, curve = curve, _curve(j, grid, log_dens + values)
        if prev is not None:
            gap = np.max(np.abs(curve.density - prev.density))
            floor = _ROUNDING * max(own_size, float(np.max(np.abs(values))))
            if gap <= max(agree, floor) * curve.density.max():
                return curve
    return _curve(j, grid, log_dens + _walk(grid, center, seed, inner))


def marginal_ml_approx(problem, ml, j, grid_spec=None, tol=1e-10):
    """Minimum-cost comparison marginal for coordinate j, for any p.

    Same structure as marginal_sp but the inner log partition is replaced
    by -tau times the inner penalized minimum at x_j = g, solved at every
    grid point from its neighbor's minimizer, and the grid is centered on
    the ML value.  Cheap, and exact in neither tails nor width when p > 1;
    kept as the comparison baseline.  With p = 1 the curve is the exact
    density on the grid.  tol must be positive and finite (else ValueError).
    """
    _positive("tol", tol)
    others, sub, c_j = _fix_coordinate(problem, j)
    if not ml.converged:
        raise NotConverged(ml.cycles, "ML solution not converged")
    sd = 1.0 / math.sqrt(2.0 * problem.tau * problem._diag[j])
    grid = _make_grid(grid_spec, float(ml.x_hat[j]), sd)

    def inner(g, x_prev):
        at_g = sub._replace(w=sub.w - g * c_j)
        x_in, cycles, ok = _ml_cd(at_g, x_prev, tol)
        if not ok:
            raise NotConverged(
                cycles, f"inner minimizer, coordinate {j}, grid value {g}"
            )
        return -problem.tau * _cost(at_g, x_in), x_in

    log_dens = _own_terms(problem, j, grid)
    if problem.p > 1:
        log_dens += _walk(grid, ml.x_hat[j], ml.x_hat[others], inner)
    return _curve(j, grid, log_dens)
