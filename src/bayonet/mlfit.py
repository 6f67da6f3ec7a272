"""Penalized maximum-likelihood solver (coordinate descent over an active set).

Minimizes x'Cx - 2w'x + 2mu*||x||_1 by soft-thresholded coordinate updates,
cycling only over an active set, after glmnet (Friedman, Hastie & Tibshirani
2010).  Each outer step takes the residual r = w - Cx from one product with
C and makes the active set the nonzero coordinates plus the zero ones that
violate |r_j| <= mu; the sweeps then touch only the active block of C, so a
sweep costs O(|A|^2) rather than O(p^2).  Within a sweep each coordinate's
partial residual is computed afresh from its row of the block, so no
running residual carries rounding from update to update.
The minimizer doubles as the warm start every other solver in the package
builds on, hence the tight default tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .data import _check_init, _cost, _positive

_MAX_CYCLES = 100_000
# relative move at which the sweeps over a just-grown active set stop and the
# optimality conditions are checked again; converging each intermediate set
# fully costs more sweeps than it saves when the solution is dense
_LOOSE_TOL = 1e-3


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


def _block_sweep(row_dots, w, diag, mu, x):
    """One soft-thresholded pass over a block in place; returns the largest
    move.

    Runs on Python floats: each coordinate's partial residual comes afresh
    from its row's bound dot method, whose operand x stays an array.
    """
    dmax = 0.0
    for k, dot in enumerate(row_dots):
        xk = x.item(k)
        dk = diag[k]
        ak = w[k] - float(dot(x)) + dk * xk
        if ak > mu:
            new = (ak - mu) / dk
        elif ak < -mu:
            new = (ak + mu) / dk
        else:
            new = 0.0
        if new != xk:
            x[k] = new
            dmax = max(dmax, abs(new - xk))
    return dmax


def _ml_cd(problem, x0, tol):
    """Active-set coordinate descent core; returns (x, cycles, converged).

    x0 is the start (None: the zero vector); marginal_ml_approx warm-starts
    each grid point at its neighbor's minimizer.  cycles counts sweeps over
    an active set, at most _MAX_CYCLES and at least 1.  The solve converges
    when a sweep at the full tolerance moves no coordinate more than
    tol * max(1, ||x||_inf) and, at the fresh residual after it, every zero
    coordinate satisfies |r_j| <= mu.  A set that has just grown is swept
    only to a move of _LOOSE_TOL relative before the conditions are checked
    again, and a sweep that zeroes a coordinate ends the set's sweeps early.
    """
    w, mu = problem.w, problem.mu
    x = np.zeros(problem.p) if x0 is None else np.array(x0, dtype=float)
    diag = problem._diag
    cycles, settled = 0, False
    while True:
        grown = (np.abs(w - problem._matvec(x)) > mu) & (x == 0.0)
        if settled and not grown.any():
            return x, cycles, True
        nz = np.flatnonzero((x != 0.0) | grown)
        eps = max(tol, _LOOSE_TOL) if grown.any() else tol
        row_dots = [row.dot for row in problem._block(nz)]
        wa, da, xa = w[nz].tolist(), diag[nz].tolist(), x[nz]
        settled = False
        while cycles < _MAX_CYCLES:
            cycles += 1
            dmax = _block_sweep(row_dots, wa, da, mu, xa)
            if dmax < eps * max(1.0, float(np.abs(xa).max(initial=0.0))):
                settled = eps == tol
                break
            if not xa.all():
                break
        x[nz] = xa
        if cycles == _MAX_CYCLES and not settled:
            return x, cycles, False


def solve_ml(problem, tol=1e-10, init=None):
    """Minimize the penalized cost of ``problem``, starting from init.

    init (default: x = 0) is any finite start of length p; the minimizer of
    a nearby l1 weight makes a good one, as glmnet's pathwise descent uses
    it.  Stops when a sweep over the active set moves no coordinate by more
    than tol * max(1, ||x||_inf) and no zero coordinate violates its
    optimality condition.  Runs the cycle budget out rather than raising; a
    budget-exhausted result comes back with converged=False.
    """
    _positive("tol", tol)
    if init is not None:
        init = _check_init(problem, init)
    x, cycles, ok = _ml_cd(problem, init, tol)
    return MlSolution(
        x_hat=x,
        active_set=tuple(int(j) for j in np.nonzero(x)[0]),
        h_min=_cost(problem, x),
        cycles=cycles,
        converged=ok,
    )
