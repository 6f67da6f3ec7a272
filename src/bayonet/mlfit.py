"""Penalized maximum-likelihood solver (cyclic coordinate descent).

Minimizes x'Cx - 2w'x + 2mu*||x||_1 by soft-thresholded coordinate updates.
The residual vector r = w - Cx is maintained incrementally so one full sweep
costs O(p^2) off the matrix, and refreshed from scratch at the end of every
cycle so incremental rounding can never accumulate into the stopping test.
The minimizer doubles as the warm start every other solver in the package
builds on, hence the tight default tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import _cost

_MAX_CYCLES = 100_000


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


def _soft_threshold(a, mu):
    return math.copysign(max(abs(a) - mu, 0.0), a)


def _ml_cd(problem, x0, tol):
    """Coordinate descent core; returns (x, cycles, converged).

    x0 is the start (None: the zero vector); marginal_ml_approx warm-starts
    each grid point at its neighbor's minimizer.
    """
    c, w, mu, p = problem.c, problem.w, problem.mu, problem.p
    x = np.zeros(p) if x0 is None else np.array(x0, dtype=float)
    diag = np.diagonal(c)
    r = w - c @ x
    for cycle in range(1, _MAX_CYCLES + 1):
        dmax = 0.0
        for j in range(p):
            aj = r[j] + diag[j] * x[j]
            xj = _soft_threshold(aj, mu) / diag[j]
            d = xj - x[j]
            if d != 0.0:
                r -= c[:, j] * d
                x[j] = xj
                dmax = max(dmax, abs(d))
        r = w - c @ x
        if dmax < tol * max(1.0, float(np.max(np.abs(x)))):
            return x, cycle, True
    return x, _MAX_CYCLES, False


def solve_ml(problem, tol=1e-10):
    """Minimize the penalized cost of ``problem``, starting from x = 0.

    Stops when the largest coordinate move in a full sweep drops below
    tol * max(1, ||x||_inf).  Runs the cycle budget out rather than raising;
    a budget-exhausted result comes back with converged=False.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    x, cycles, ok = _ml_cd(problem, None, tol)
    return MlSolution(
        x_hat=x,
        active_set=tuple(int(j) for j in np.nonzero(x)[0]),
        h_min=_cost(problem, x),
        cycles=cycles,
        converged=ok,
    )
