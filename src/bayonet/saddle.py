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
Newton step to polish it.  No factor leaves the solver: log Z and the
marginal curves factor C + D at the polished point.

The one Newton loop, _saddle_cd, solves a stack of lanes: iterates of one
problem that differ only in tau and mu, one lane per (mu, tau) cell, each
from its own start.  tau_path runs a whole (mu, tau) grid (a tau grid at
the problem's own mu, cross-validation's fold, the convergence sweep) as
lanes, in any order; solve_saddle and the marginal curves' inner solves are
the one-lane case.  Lane k keeps row k of the stack throughout, and one
mask tells the live lanes.  The residuals, box and b tests, the damped step
(one loop over t = 1, 1/2, ...) and the convergence tests are done once per
cycle for the whole stack, which is where small problems spend their time.
Each lane solves its own C + D system; on the direct route the stepping
lanes' systems are one batched LU solve, no factor kept
(partition._CPlusD.solve_stack), and a lane whose system cannot be solved
takes its own fallback sweep.

Holding the other coordinates fixed, each condition is a cubic in x_j with
exactly one interior root, found by Newton on a sign-changing bracket.  One
cyclic sweep of these per-coordinate solves is the globalizer: it replaces
the Newton step wherever that cannot be taken (some b <= 0, a C + D
system that cannot be solved, or a backtrack that cannot keep u inside the
box while lowering the residual, as from a warm start outside it).  A solve has
converged only with every |u_j| < mu and every b_j > 0, as at every
stationary point.  The iterate is x throughout (never u), which avoids
forming C^{-1}.  The private solvers take the PenalizedProblem whole and
read C through its accessors, so a wide problem's C is never formed; which
factorization route C + D takes is read from it in partition._CPlusD only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import _check_init, _positive
from .errors import NoAdmissibleRoot
from .partition import _CPlusD

_MIN_STEP = 1e-4
_MAX_CYCLES = 2000
_BRACKET_STEPS = 200


@dataclass(frozen=True)
class SaddleSolution:
    """Stationary point at one (mu, tau) cell.

    x_tau is the posterior-mean vector, u_tau = w - C x_tau its dual; the
    residual is the l-inf norm of the stationarity conditions evaluated with
    a fresh u (no incremental bookkeeping involved).  cycles counts Newton
    steps plus fallback coordinate sweeps, the final polishing step
    included, so a converged solve has cycles >= 1; a lane whose mu * mu or
    1 / tau is not a finite float returns unconverged with cycles = 0,
    since no x gives it a finite residual.  converged means the
    residual met the tolerance of ``solve_saddle`` with u_tau strictly
    inside the box, |u_j| < mu, and every 2 u_j x_j + 1/tau > 0, as at
    every stationary point.
    """

    u_tau: np.ndarray
    x_tau: np.ndarray
    mu: float
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
            f"a={float(a)!r} cjj={float(cjj)!r} mu={float(mu)!r} "
            f"tau={float(tau)!r}: no interior root"
        )
    return x


def _residual(x, u, mu, tau):
    # l-inf norm of the stationarity conditions; row by row for a stack of
    # iterates, tau then a column
    return np.abs((mu * mu - u * u) * x - u / tau).max(axis=-1)


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


def _newton_step(problem, x, u, b, res, tau, mu, live):
    """Damped Newton steps for the live rows of a stack, in place; returns
    moved.

    Row k of (x, u) is an iterate at inverse temperature tau[k] and l1
    weight mu[k] (both columns) with residual res[k], live where live[k].
    The Jacobian of F(x) = a*x - u/tau is diag(b) (C + diag(a/b)) with
    a = mu^2 - u^2 and b = 2ux + 1/tau (given: the caller's convergence test
    reads it too), so each live row solves (C + diag(a/b)) dx = -F/b; the
    systems go to partition._CPlusD.solve_stack together, on the direct
    route at small p as one batched LU solve, no factor kept.  A row on or
    just outside the box (the ML minimizer has |u_j| = mu up to its
    tolerance) uses max(a, 0), which keeps the matrix positive definite.  A
    row keeps the longest of the steps t dx, t = 1, 1/2, 1/4, ... down to
    _MIN_STEP, that leaves every |u| < mu and its plug-back residual below
    res: one loop tries each t on the whole stack, and a row still trying
    takes it where it qualifies (the full step, almost always).  moved is
    False, and the row left as it was, where it is not live, some b <= 0,
    its system could not be solved or no step qualified.  Rows that cannot
    step and trial points outside the box compute values that are never
    kept, so the caller ignores their floating-point errors.
    """
    w = problem.w
    a = mu * mu - u * u
    stepping = live & (b > 0.0).all(axis=1)
    e = np.maximum(a, 0.0) / b
    dx = (u / tau - a * x) / b
    _CPlusD.solve_stack(problem, e, dx, stepping)
    trying, t = stepping, 1.0
    while True:
        xt = x + dx
        ut = w - problem._matvec(xt)
        rt = _residual(xt, ut, mu, tau)
        take = trying & (np.abs(ut) < mu).all(axis=1) & (rt < res)
        np.copyto(x, xt, where=take[:, None])
        np.copyto(u, ut, where=take[:, None])
        np.copyto(res, rt, where=take)
        trying = trying ^ take
        t *= 0.5
        if t < _MIN_STEP or not trying.any():
            return stepping ^ trying
        dx *= 0.5


def _saddle_cd(problem, x0, tol, taus=None, mus=None):
    """Solve in lockstep from x0, one lane per pair (taus[k], mus[k])
    (default: one lane at the problem's own tau and mu); returns one
    SaddleSolution per lane, in lane order.

    The lanes are iterates of the one problem that differ only in tau and
    mu; x0 is one start for all, or one row per lane.  Each cycle moves
    every live lane by a damped Newton step, or by one coordinate sweep
    where it cannot take one.  A lane has converged when its residual is
    below tol * max(1, 1/tau) with every |u| < mu and every
    b = 2ux + 1/tau > 0.  At a stationary point x and u share a sign, so
    b >= 1/tau.  The b test rejects starts such as x of the opposite sign
    to u with |u| within rounding of mu: a ~ 0 there, and at large tau the
    residual |a x - u/tau| is below tol far from the root.

    The one exit of a converged lane is the cycle that finds it converged,
    a start that already is included: that cycle's Newton step polishes the
    iterate, kept only if it lowers the residual, and the lane leaves with
    cycles set to that cycle's number, so cycles >= 1.  Lane k keeps row k
    of the stacked arrays throughout, and one mask tells the live lanes; a
    lane that leaves clears its bit, and its row, which its SaddleSolution's
    x_tau and u_tau view, is never written again.  Lanes run independently
    of each other: up to the rounding of the products and factorizations
    they share, each one's iterates are those it would take alone.  A lane
    still live after _MAX_CYCLES cycles returns converged=False and
    cycles = _MAX_CYCLES.  A doomed lane, one whose mu * mu or 1 / tau is
    not a finite float, has no x with a finite residual: it returns its
    start unconverged with cycles = 0, before the first cycle.
    """
    if taus is None:
        taus, mus = [problem.tau], [problem.mu]
    taus = np.array(taus, dtype=float)
    tols = tol * np.maximum(1.0, 1.0 / taus)
    tau, mu = taus[:, None], np.array(mus, dtype=float)[:, None]
    x = np.empty((taus.size, problem.p))
    x[:] = x0
    u = problem.w - problem._matvec(x)
    live = np.ones(taus.size, dtype=bool)
    out = [None] * taus.size

    def leave(gone, cycles, ok):
        # the lanes in gone leave as they are; False once none is live
        for k in gone.nonzero()[0]:
            out[k] = SaddleSolution(
                u_tau=u[k], x_tau=x[k], mu=float(mu[k, 0]), tau=float(tau[k, 0]),
                cycles=cycles, residual=float(res[k]), converged=ok,
            )
        live[gone] = False
        return live.any()

    # the Newton steps' discarded trial values may overflow or divide by
    # zero, and so may every residual of a doomed lane
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        res = _residual(x, u, mu, tau)
        doomed = ~(np.isfinite(mu * mu) & np.isfinite(1.0 / tau))[:, 0]
        if doomed.any() and not leave(doomed, 0, False):
            return out
        for cycles in range(1, _MAX_CYCLES + 1):
            b = 2.0 * u * x + 1.0 / tau
            done = live & (res < tols)
            exits = done.any()
            if exits:
                inside = (np.abs(u) < mu).all(axis=1)
                done &= inside & (b > 0.0).all(axis=1)
                exits = done.any()
            moved = _newton_step(problem, x, u, b, res, tau, mu, live)
            # done and moved are live: the rest of the live lanes sweep
            for k in (live ^ (done | moved)).nonzero()[0]:
                at_k = problem._replace(tau=float(tau[k, 0]), mu=float(mu[k, 0]))
                x[k], u[k], res[k] = _sweep(at_k, x[k], u[k])
            if exits and not leave(done, cycles, True):
                return out
    leave(live, _MAX_CYCLES, False)
    return out


def solve_saddle(problem, init, tol=1e-10):
    """Find the stationary point of ``problem`` starting from ``init``.

    init is typically the penalized ML minimizer.  Converged means every
    |u_j| < mu, every 2 u_j x_j + 1/tau > 0 and a plug-back residual below
    tol * max(1, 1/tau): for
    tau < 1 the rounding of u = w - Cx, magnified by 1/tau, keeps the
    residual near eps*|w|/tau, so there tol bounds tau times it.  A run that
    exhausts the cycle budget returns converged=False with the last iterate.
    It is the one-cell tau_path, at the problem's own mu and tau.
    """
    [sol] = tau_path(problem, [problem.tau], init, tol)
    return sol


def tau_path(problem, taus, init=None, tol=1e-10, mus=None):
    """Solve at every (mu, tau) cell of a grid, the taus in any order.

    The grid is mu major: element i*len(taus)+k is the stationary point of
    problem.with_mu(mus[i]).with_tau(taus[k]) from init[i], converged in
    the sense of solve_saddle.  init has one row per mu (omitted, zeros),
    and all len(mus)*len(taus) cells are solved in lockstep, one lane per
    cell, so each cycle's bookkeeping (residuals, box tests, backtracking,
    convergence tests) is done once for all lanes still running.  Without
    mus the grid is the one mu [problem.mu], and init, a single start, is
    its one row.  Taus, mus and tol must be positive and finite.  The
    sparse minimizer is the natural init.
    """
    taus = _positive("taus", taus)
    _positive("tol", tol)
    if mus is None:
        mus = [problem.mu]
        init = None if init is None else [init]
    mus = _positive("mus", mus)
    m, n = mus.size, taus.size
    init = np.zeros((m, problem.p)) if init is None else _check_init(problem, init, m)
    return _saddle_cd(
        problem, np.repeat(init, n, axis=0), tol, np.tile(taus, m), np.repeat(mus, n)
    )
