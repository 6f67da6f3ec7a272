"""Penalized maximum-likelihood solver (active-set orthant solves).

Minimizes x'Cx - 2w'x + 2mu*||x||_1.  For a fixed support A and sign
vector s the minimizer is exact: x_A = C_AA^{-1}(w_A - mu s_A), the
classical active-set lasso solve (Osborne, Presnell & Turlach 2000).  Each
outer step takes the residual r = w - Cx from one product with C, makes
the active set the nonzero coordinates plus the zero ones that violate
|r_j| <= mu, and solves on that orthant through the package's one Cholesky
(partition._CPlusD, which takes the n x n route while |A| > n).  A result
whose signs all agree with s is kept; down a descending mu column the warm
start almost always has the right support and signs, and one solve ends
the fit.  Where the signs disagree or the factor fails, glmnet-style
soft-thresholded coordinate sweeps over the active block (Friedman, Hastie
& Tibshirani 2010) are the globalizer.  They read the partial residuals
by the problem's one rule, PenalizedProblem._partial_residuals: fresh rows
of the block, or while |A| > n columns of the design, at O(|A| min(|A|,
n)) per sweep with no |A| x |A| block formed.  The minimizer doubles as
the warm start every other solver in the package builds on, hence the
tight default tolerance of the sweeps.
"""

from dataclasses import dataclass

import numpy as np

from .data import _check_init, _cost, _positive
from .errors import SingularMatrix
from .partition import _CPlusD

_MAX_CYCLES = 100_000
# relative move at which the sweeps over a just-grown active set stop and the
# optimality conditions are checked again; converging each intermediate set
# fully costs more sweeps than it saves when the solution is dense
_LOOSE_TOL = 1e-3
# a failed orthant solve on k coordinates costs about k / _SOLVE_SWEEPS
# sweeps of that block from k = 100 on, and one to three below (1 BLAS
# thread, dense and wide): after one, that many sweeps, at least one, run
# before the next solve
_SOLVE_SWEEPS = 64


@dataclass(frozen=True)
class MlSolution:
    """Minimizer of the penalized cost.

    x_hat holds exact zeros off the active set; h_min is the cost at x_hat.
    converged reports whether the cycle budget sufficed; callers that need a
    converged solution must check it (the vector is returned either way).
    """

    x_hat: np.ndarray
    active_set: tuple
    h_min: float
    cycles: int
    converged: bool


def _block_sweep(rule, w, diag, mu, x):
    """One soft-thresholded pass over a block in place; returns the largest
    move.

    rule is the block's PenalizedProblem._partial_residuals, taken once per
    block; the pass starts it afresh.  Runs on Python floats; x stays an
    array, the dots' operand on a dense block.
    """
    dots, own, start, move = rule
    v = start(x)
    dmax = 0.0
    for k, dot in enumerate(dots):
        xk = x.item(k)
        dk = diag[k]
        ak = w[k] - float(dot(v)) + own[k] * xk
        if ak > mu:
            new = (ak - mu) / dk
        elif ak < -mu:
            new = (ak + mu) / dk
        else:
            new = 0.0
        if new != xk:
            x[k] = new
            if move is not None:
                move(k, new - xk)
            dmax = max(dmax, abs(new - xk))
    return dmax


def _orthant_solve(sub, mu, s):
    """The minimizer on the orthant of signs s of the restricted problem
    sub, x_A = C_AA^{-1}(w_A - mu s_A), or None when a sign of it disagrees
    with s or C_AA cannot be factored."""
    if not s.size:
        return s
    try:
        xa = _CPlusD(sub, np.zeros(s.size)).solve(sub.w - mu * s)
    except SingularMatrix:
        return None
    return xa if (np.sign(xa) == s).all() else None


def _ml_cd(problem, x0, tol):
    """Active-set solver core; returns (x, cycles, converged).

    x0 is the start (None: the zero vector); marginal_ml_approx warm-starts
    each grid point at its neighbor's minimizer.  Each outer step takes the
    residual r = w - Cx, the active set A of nonzeros and violators and the
    signs s (of x, or of r for a violator), and solves on that orthant; a
    result whose signs all agree with s is kept.  Otherwise the block of A
    is swept until a sweep moves no coordinate more than tol *
    max(1, ||x||_inf); a set that has just grown is swept only to a move of
    _LOOSE_TOL relative, and a sweep that leaves a zero in the block ends
    the set's sweeps early.  After a failed solve on k coordinates the
    next one waits for max(1, k // _SOLVE_SWEEPS) sweeps, fewer if a sweep
    meets its tolerance first, and the sweeps stop when the wait is over:
    failed solves on a large set that is still shedding coordinates cost
    no more than the sweeps, and a set whose signs came right is not swept
    on to the tolerance.  tol governs only the sweeps; a kept solve is
    exact to rounding.

    A cycle is one solve or one sweep; cycles counts both, at most
    _MAX_CYCLES.  The solver converges at the first residual after a kept
    solve, or after a sweep that met tol, at which no zero coordinate
    violates |r_j| <= mu.  A zero coordinate of that sweep's block is
    exempt: the sweep's own soft-threshold test put it inside, and the
    residual of the product with C may round it just outside, which would
    send the solver back and forth between solve and sweep at such a kink.
    """
    w, mu = problem.w, problem.mu
    x = np.zeros(problem.p) if x0 is None else np.array(x0, dtype=float)
    cycles, done, wait = 0, None, 0
    while True:
        r = w - problem._matvec(x)
        grown = (np.abs(r) > mu) & (x == 0.0)
        if done is not None:
            grown[done] = False
            if not grown.any():
                return x, cycles, True
        if cycles == _MAX_CYCLES:
            return x, cycles, False
        nz = np.flatnonzero((x != 0.0) | grown)
        sub = problem._restrict(nz)
        if wait <= 0:
            cycles += 1
            s = np.sign(np.where(grown[nz], r[nz], x[nz]))
            xa = _orthant_solve(sub, mu, s)
            if xa is not None:
                x[nz] = xa
                done = nz
                continue
            wait = max(1, nz.size // _SOLVE_SWEEPS)
        done = None
        eps = max(tol, _LOOSE_TOL) if grown.any() else tol
        rule = sub._partial_residuals()
        wa, da, xa = sub.w.tolist(), sub._diag.tolist(), x[nz]
        while cycles < _MAX_CYCLES:
            cycles += 1
            wait -= 1
            dmax = _block_sweep(rule, wa, da, mu, xa)
            scale = max(1.0, float(np.abs(xa).max(initial=0.0)))
            if dmax < tol * scale:
                done = nz
            if dmax < eps * scale:
                wait = 0
            if not wait or not xa.all():
                break
        x[nz] = xa


def solve_ml(problem, tol=1e-10, init=None):
    """Minimize the penalized cost of ``problem``, starting from init.

    init (default: x = 0) is any finite start of length p; the minimizer of
    a nearby l1 weight makes a good one, as glmnet's pathwise descent uses
    it, and then one orthant solve usually ends the fit.  Stops when a solve
    on the active set keeps the signs it was given, or a coordinate sweep
    over the active set moves no coordinate by more than tol *
    max(1, ||x||_inf), and no zero coordinate violates its optimality
    condition.  tol governs only the sweeps, the fallback where a solve's
    signs disagree; cycles counts solves plus sweeps.  Runs the cycle budget
    out rather than raising; a budget-exhausted result comes back with
    converged=False.
    """
    _positive("tol", tol)
    if init is not None:
        init = _check_init(problem, init)
    x, cycles, ok = _ml_cd(problem, init, tol)
    return MlSolution(
        x_hat=x,
        active_set=tuple(np.flatnonzero(x).tolist()),
        h_min=_cost(problem, x),
        cycles=cycles,
        converged=ok,
    )
