"""Interior stationary-point solver for the log-partition exponent.

The stationarity conditions couple a dual vector u (boxed inside |u_j| < mu)
to the primal mean x = C^{-1}(w - u) through

    (mu^2 - u_j^2) * x_j - u_j / tau = 0 ,        u = w - C x .

The solver is a damped Newton iteration on x.  With a = mu^2 - u^2 and
b = 2ux + 1/tau the Jacobian is diag(b) (C + diag(a/b)), and at the
stationary point a/b is exactly the curvature diagonal D of the log
partition, so each step factors the same kind of matrix C + D that log Z
and the posterior standard deviations factor, through the same helper
(an n x n core for wide designs).  Steps are halved to keep u strictly
inside the box and the plug-back residual falling; from the penalized ML
minimizer a handful of steps take the residual down to rounding level.
Every solve, a start that already meets the tolerance included, leaves
through one exit: the cycle that finds the iterate converged takes one more
Newton step to polish it and hands back that step's factor of C + D.  That
factor is built before the polish step moves x, so log Z and the marginal
curves factor C + D again at the polished point.

Holding the other coordinates fixed, each condition is a cubic in x_j with
exactly one interior root, found by Newton on a sign-changing bracket.  One
cyclic sweep of these per-coordinate solves is the globalizer: it replaces
the Newton step wherever that cannot be taken (some b <= 0, a failed
factorization, or a backtrack that cannot keep u inside the box while
lowering the residual, as from a warm start outside it).  A solve has
converged only with every |u_j| < mu and every b_j > 0, as at every
stationary point.  The iterate is x throughout (never u), which avoids
forming C^{-1}.  The private solvers take the PenalizedProblem whole and
read C through its accessors, so a wide problem's C is never formed; which
factorization route C + D takes is read from it in partition._CPlusD only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoAdmissibleRoot, SingularMatrix
from .partition import _CPlusD

_MIN_STEP = 1e-4
_MAX_CYCLES = 2000
_BRACKET_STEPS = 200


@dataclass(frozen=True)
class SaddleSolution:
    """Stationary point at one inverse temperature.

    x_tau is the posterior-mean vector, u_tau = w - C x_tau its dual; the
    residual is the l-inf norm of the stationarity conditions evaluated with
    a fresh u (no incremental bookkeeping involved).  cycles counts Newton
    steps plus fallback coordinate sweeps, the final polishing step
    included, so a converged solve has cycles >= 1.  converged means the
    residual met the tolerance of ``solve_saddle`` with u_tau strictly
    inside the box, |u_j| < mu, and every 2 u_j x_j + 1/tau > 0, as at
    every stationary point.
    """

    u_tau: np.ndarray
    x_tau: np.ndarray
    tau: float
    cycles: int
    residual: float
    converged: bool


def coordinate_cubic(a, cjj, mu, tau):
    """Solve one coordinate's stationarity condition.

    Given the partial residual a (the value w_j - sum_{k != j} C_kj x_k),
    returns the root x of f(x) = (mu^2 - u^2) x - u/tau, u = a - cjj x,
    with u strictly inside (-mu, mu).  Across the box f runs from -mu/tau
    (u = mu) to +mu/tau (u = -mu); as a cubic in u it has its other two
    roots beyond -mu and +mu, so one root is interior.  There x and u share
    a sign: for a > 0 it lies in [max(0, (a - mu)/cjj), a/cjj], where
    f' > 0 (a < 0 mirrors this).  From the lower end each step is Newton,
    or the midpoint when Newton leaves the bracket (a step too small to move
    x probes the next float).  The upper end, the least point found with
    f >= 0, is returned: there |u| < mu holds after rounding too.  a = 0
    short-circuits to the exact root 0.
    """
    if not (cjj > 0.0 and mu > 0.0 and tau > 0.0):
        raise ValueError("cjj, mu and tau must be positive")
    if a == 0.0:
        return 0.0
    b = abs(a)
    lo, hi = max(0.0, (b - mu) / cjj), b / cjj
    x = lo
    for _ in range(_BRACKET_STEPS):
        u = b - cjj * x
        g = mu * mu - u * u
        f = g * x - u / tau
        if f < 0.0:
            lo = x
        else:
            hi = x
        xn = x - f / (g + 2.0 * u * cjj * x + cjj / tau)
        if xn == x:
            xn = math.nextafter(x, hi if f < 0.0 else lo)
        if not lo < xn < hi:
            xn = 0.5 * (lo + hi)
            if not lo < xn < hi:
                break
        x = xn
    x = math.copysign(hi, a)
    if not abs(a - cjj * x) < mu:
        raise NoAdmissibleRoot(
            f"a={a!r} cjj={cjj!r} mu={mu!r} tau={tau!r}: no interior root"
        )
    return x


def _residual(x, u, mu, tau):
    return float(np.max(np.abs((mu * mu - u * u) * x - u / tau)))


def _sweep(problem, x, u):
    """One cyclic coordinate sweep from (x, u = w - Cx); returns (x, u, res).

    The partial residuals come from r = w - Cx, kept current by columns of
    C, or, on a problem that holds its design A instead of C, from s = A x,
    kept current by columns of A at O(n) per coordinate.  The returned u is
    recomputed from scratch, never the incrementally updated one.
    """
    w, mu, tau = problem.w, problem.mu, problem.tau
    f = problem.low_rank_factor
    diag = problem._diag
    x = x.copy()
    if f is None:
        r = u.copy()
        for j in range(w.shape[0]):
            xj = coordinate_cubic(r[j] + diag[j] * x[j], diag[j], mu, tau)
            dx = xj - x[j]
            if dx != 0.0:
                r -= problem._col(j) * dx
                x[j] = xj
    else:
        cols = np.ascontiguousarray(f.T)
        two_n = 2.0 * f.shape[0]
        own = diag - problem.lam  # the A'A/(2n) part of C_jj
        s = f @ x
        for j in range(w.shape[0]):
            aj = w[j] - cols[j] @ s / two_n + own[j] * x[j]
            xj = coordinate_cubic(aj, diag[j], mu, tau)
            dx = xj - x[j]
            if dx != 0.0:
                s += cols[j] * dx
                x[j] = xj
    u = w - problem._matvec(x)
    return x, u, _residual(x, u, mu, tau)


def _newton_step(problem, x, u, res):
    """Damped Newton step from (x, u); returns (step, c_plus_d).

    The Jacobian of F(x) = a*x - u/tau is diag(b) (C + diag(a/b)) with
    a = mu^2 - u^2 and b = 2ux + 1/tau, so the step solves
    (C + diag(a/b)) dx = -F/b on one factor of C + diag(a/b).  It is halved
    until every |u| < mu and the plug-back residual falls below res.  A
    start on or just outside the box (the ML minimizer has |u_j| = mu up to
    its tolerance) uses max(a, 0), which keeps the matrix positive definite.
    step is the new (x, u, res), or None if some b <= 0, the factor failed,
    or the step shrank below _MIN_STEP.  c_plus_d is the factor used, or
    None if none was built.
    """
    w, mu, tau = problem.w, problem.mu, problem.tau
    a = mu * mu - u * u
    b = 2.0 * u * x + 1.0 / tau
    if not np.all(b > 0.0):
        return None, None
    try:
        c_plus_d = _CPlusD(problem, np.maximum(a, 0.0) / b)
    except SingularMatrix:
        return None, None
    dx = c_plus_d.solve((u / tau - a * x) / b)
    t = 1.0
    while t >= _MIN_STEP:
        xt = x + t * dx
        ut = w - problem._matvec(xt)
        if np.max(np.abs(ut)) < mu:
            rt = _residual(xt, ut, mu, tau)
            if rt < res:
                return (xt, ut, rt), c_plus_d
        t *= 0.5
    return None, c_plus_d


def _saddle_cd(problem, x0, tol):
    """Solve from x0; returns (x, u, cycles, residual, converged, c_plus_d).

    Each cycle is a damped Newton step, or one coordinate sweep where no
    Newton step can be taken.  Converged means the residual is below
    tol * max(1, 1/tau) with every |u| < mu and every b = 2ux + 1/tau > 0.
    At a stationary point x and u share a sign, so b >= 1/tau.  The b test
    rejects starts such as x of the opposite sign to u with |u| within
    rounding of mu: a ~ 0 there, and at large tau the residual |a x - u/tau|
    is below tol far from the root.

    The one exit of a converged solve is the cycle that finds it converged,
    a start that already is included: that cycle's Newton step polishes the
    iterate, kept only if it lowers the residual, so a converged solve
    reports cycles >= 1.  c_plus_d is the polish step's factor of
    C + diag(a/b), built at the converged point, where a/b is the curvature
    diagonal D up to the tolerance; it is None only where that factor
    failed.  A run that exhausts the budget returns converged=False, cycles
    = _MAX_CYCLES and no factor.
    """
    mu, tau = problem.mu, problem.tau
    tol = tol * max(1.0, 1.0 / tau)
    x = np.array(x0, dtype=float)
    u = problem.w - problem._matvec(x)
    res = _residual(x, u, mu, tau)
    for cycles in range(1, _MAX_CYCLES + 1):
        step, c_plus_d = _newton_step(problem, x, u, res)
        if (
            res < tol
            and float(np.max(np.abs(u))) < mu
            and bool(np.all(2.0 * u * x + 1.0 / tau > 0.0))
        ):
            if step is not None:
                x, u, res = step
            return x, u, cycles, res, True, c_plus_d
        x, u, res = step if step is not None else _sweep(problem, x, u)
    return x, u, _MAX_CYCLES, res, False, None


def solve_saddle(problem, init, tol=1e-10):
    """Find the stationary point of ``problem`` starting from ``init``.

    init is typically the penalized ML minimizer.  Converged means every
    |u_j| < mu, every 2 u_j x_j + 1/tau > 0 and a plug-back residual below
    tol * max(1, 1/tau): for
    tau < 1 the rounding of u = w - Cx, magnified by 1/tau, keeps the
    residual near eps*|w|/tau, so there tol bounds tau times it.  A run that
    exhausts the cycle budget returns converged=False with the last iterate.
    """
    init = np.asarray(init, dtype=float)
    if init.shape != (problem.p,):
        raise ValueError(f"init must have length {problem.p}")
    if not np.isfinite(init).all():
        raise ValueError("init must be finite")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    x, u, cycles, res, ok, _ = _saddle_cd(problem, init, tol)
    return SaddleSolution(
        u_tau=u, x_tau=x, tau=problem.tau, cycles=cycles, residual=res, converged=ok
    )


def tau_path(problem, taus, init=None, tol=1e-10):
    """Solve along a strictly decreasing inverse-temperature grid.

    Each solution warm-starts the next (the stationary point moves
    continuously in tau, so the previous x is an excellent start).  init
    seeds the first solve, the one at the largest tau; the sparse minimizer
    is the natural choice there.  Omitted, it defaults to the zero vector.
    """
    taus = [float(t) for t in taus]
    if not taus:
        raise ValueError("empty tau grid")
    if any(t <= 0.0 for t in taus):
        raise ValueError("taus must be positive")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau grid must be strictly decreasing")
    x = np.zeros(problem.p) if init is None else np.asarray(init, dtype=float)
    out = []
    for t in taus:
        sol = solve_saddle(problem.with_tau(t), x, tol=tol)
        out.append(sol)
        x = sol.x_tau
    return out
