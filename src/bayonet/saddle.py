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

Eliminating u coordinate-wise turns each condition into a cubic in x_j with
exactly one root whose dual value lands strictly inside the box.  One
cyclic sweep of these per-coordinate cubic solves is the globalizer: it
replaces the Newton step wherever that cannot be taken (some b <= 0, a
failed factorization, or a stalled backtrack).  The iterate is x
throughout (never u), which avoids forming C^{-1}.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoAdmissibleRoot, SingularMatrix
from .partition import _CPlusD

_MIN_STEP = 1e-4
_MAX_CYCLES = 2000


@dataclass(frozen=True)
class SaddleSolution:
    """Stationary point at one inverse temperature.

    x_tau is the posterior-mean vector, u_tau = w - C x_tau its dual; the
    residual is the l-inf norm of the stationarity conditions evaluated with
    a fresh u (no incremental bookkeeping involved).  cycles counts Newton
    steps plus fallback coordinate sweeps, the final polishing step
    included.
    """

    u_tau: np.ndarray
    x_tau: np.ndarray
    tau: float
    cycles: int
    residual: float
    converged: bool


def _real_roots_cubic(b2, b1, b0):
    """All real roots of x^3 + b2 x^2 + b1 x + b0 (1 or 3 of them).

    Depressed-cubic closed form: three-real-root case via the trigonometric
    identity, single-root case via Cardano with the sign-stable cube root
    pairing (u and -p/(3u)) so cancellation cannot blow up the root.
    """
    p = b1 - b2 * b2 / 3.0
    q = 2.0 * b2 ** 3 / 27.0 - b2 * b1 / 3.0 + b0
    shift = -b2 / 3.0
    disc = -4.0 * p ** 3 - 27.0 * q * q
    if disc > 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = min(1.0, max(-1.0, 3.0 * q / (p * m)))
        phi = math.acos(arg) / 3.0
        return [shift + m * math.cos(phi - 2.0 * math.pi * k / 3.0) for k in range(3)]
    d = q * q / 4.0 + p ** 3 / 27.0
    s = math.sqrt(max(d, 0.0))
    u3 = -q / 2.0 - math.copysign(s, q)
    if u3 == 0.0:
        return [shift]
    u = float(np.cbrt(u3))
    return [shift + u - p / (3.0 * u)]


def coordinate_cubic(a, cjj, mu, tau):
    """Solve one coordinate's stationarity condition.

    Given the partial residual a (the value w_j - sum_{k != j} C_kj x_k),
    returns the root x_j of

        cjj^2 x^3 - 2 a cjj x^2 + (a^2 - mu^2 - cjj/tau) x + a/tau = 0

    whose dual value u = a - cjj*x lies strictly inside (-mu, mu).  Each
    closed-form root gets two Newton polish steps on the stationarity
    function before the admissibility test; among admissible candidates
    (interior by at least a 1e-14*mu margin) the smallest-residual one wins.
    Zero partial residual short-circuits to the exact root 0.
    """
    if not (cjj > 0.0 and mu > 0.0 and tau > 0.0):
        raise ValueError("cjj, mu and tau must be positive")
    if a == 0.0:
        return 0.0
    b2 = -2.0 * a / cjj
    b1 = (a * a - mu * mu - cjj / tau) / cjj ** 2
    b0 = a / (tau * cjj ** 2)
    margin = mu * (1.0 - 1e-14)
    best = None
    best_res = math.inf
    for x in _real_roots_cubic(b2, b1, b0):
        for _ in range(2):
            u = a - cjj * x
            g = (mu * mu - u * u) * x - u / tau
            gp = (mu * mu - u * u) + 2.0 * u * cjj * x + cjj / tau
            if gp != 0.0:
                x -= g / gp
        u = a - cjj * x
        if abs(u) < margin:
            res = abs((mu * mu - u * u) * x - u / tau)
            if res < best_res:
                best, best_res = x, res
    if best is None:
        raise NoAdmissibleRoot(
            f"a={a!r} cjj={cjj!r} mu={mu!r} tau={tau!r}: no interior root"
        )
    return best


def _residual(x, u, mu, tau):
    return float(np.max(np.abs((mu * mu - u * u) * x - u / tau)))


def _sweep(c, w, mu, tau, x, u):
    """One cyclic coordinate sweep from (x, u = w - Cx); returns (x, u, res).

    The returned u is recomputed from scratch, never the incrementally
    updated one.
    """
    x = x.copy()
    r = u.copy()
    diag = np.diagonal(c)
    for j in range(w.shape[0]):
        aj = r[j] + diag[j] * x[j]
        xj = coordinate_cubic(aj, diag[j], mu, tau)
        dx = xj - x[j]
        if dx != 0.0:
            r -= c[:, j] * dx
            x[j] = xj
    u = w - c @ x
    return x, u, _residual(x, u, mu, tau)


def _newton_step(c, w, mu, tau, lam, factor, x, u, res):
    """Damped Newton step from (x, u); (x, u, res) or None if none is taken.

    The Jacobian of F(x) = a*x - u/tau is diag(b) (C + diag(a/b)) with
    a = mu^2 - u^2 and b = 2ux + 1/tau, so the step solves
    (C + diag(a/b)) dx = -F/b on one factor of C + diag(a/b).  It is halved
    until every |u| < mu and the plug-back residual falls below res.  A
    start on or just outside the box (the ML minimizer has |u_j| = mu up to
    its tolerance) uses max(a, 0), which keeps the matrix positive definite.
    None means some b <= 0, the factor failed, or the step shrank below
    _MIN_STEP.
    """
    a = mu * mu - u * u
    b = 2.0 * u * x + 1.0 / tau
    if not np.all(b > 0.0):
        return None
    try:
        dx = _CPlusD(c, np.maximum(a, 0.0) / b, lam, factor).solve((u / tau - a * x) / b)
    except SingularMatrix:
        return None
    t = 1.0
    while t >= _MIN_STEP:
        xt = x + t * dx
        ut = w - c @ xt
        if np.max(np.abs(ut)) < mu:
            rt = _residual(xt, ut, mu, tau)
            if rt < res:
                return xt, ut, rt
        t *= 0.5
    return None


def _saddle_cd(c, w, mu, tau, x0, tol, lam=0.0, factor=None):
    """Array-level solve; returns (x, u, cycles, residual, converged).

    Each cycle is a damped Newton step, or one coordinate sweep where no
    Newton step can be taken.  Once the residual is below tol one more
    Newton step polishes the iterate, kept only if it lowers the residual.
    lam and factor are the problem's l2 weight and design factor (None:
    C carries none), which pick the factorization route of C + diag(a/b).
    """
    x = np.array(x0, dtype=float)
    u = w - c @ x
    res = _residual(x, u, mu, tau)
    if res < tol:
        return x, u, 0, res, True
    cycles = 0
    while cycles < _MAX_CYCLES:
        cycles += 1
        step = _newton_step(c, w, mu, tau, lam, factor, x, u, res)
        if res < tol:
            if step is not None:
                x, u, res = step
            return x, u, cycles, res, True
        x, u, res = step if step is not None else _sweep(c, w, mu, tau, x, u)
    return x, u, cycles, res, res < tol


def solve_saddle(problem, init, tol=1e-10):
    """Find the stationary point of ``problem`` starting from ``init``.

    init is typically the penalized ML minimizer.  Convergence is declared
    on the plug-back residual alone; a run that exhausts the cycle budget
    returns converged=False with the last iterate.
    """
    init = np.asarray(init, dtype=float)
    if init.shape != (problem.p,):
        raise ValueError(f"init must have length {problem.p}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x, u, cycles, res, ok = _saddle_cd(
        problem.c,
        problem.w,
        problem.mu,
        problem.tau,
        init,
        tol,
        problem.lam,
        problem.low_rank_factor,
    )
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
