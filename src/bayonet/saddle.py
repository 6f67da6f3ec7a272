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

The one Newton loop, _saddle_cd, solves a stack of lanes: iterates that
differ only in tau and mu, one lane per (mu, tau) cell, each from its own
start, and all of one problem or, in blocks, of several problems of one p.
tau_path runs a whole (mu, tau) grid as lanes, in any order: a tau grid at
the problem's own mu, the convergence sweep, or every fold of a
cross-validation, one block per fold with that fold's problem, each lane
from its mu's minimizer on hyper._ml_path; solve_saddle and the marginal
curves' inner solves are the one-lane case of one problem.  Lane k keeps
row k of the stack throughout, and one mask tells the live lanes.  The
residuals, box and b tests, the damped step (one loop over t = 1, 1/2, ...)
and the convergence tests are done once per cycle for the whole stack,
which is where small problems spend their time.  A lane that leaves only
has its exit cycle and converged flag recorded; every lane's
SaddleSolution is built once, when the solve returns, so a lane costs its
share of the stack's operations and its own solve, with no per-lane
bookkeeping inside the loop.  A block's C x products (_dual) are taken
over a contiguous copy of its lanes, as its own stack's would be.
Each lane solves its own C + D system; on the direct route the stepping
lanes' systems are one batched LU solve, shared by the blocks, no factor
kept (partition._CPlusD.solve_stack), and a lane whose system cannot be
solved takes its own fallback sweep.

Holding the other coordinates fixed, each condition is a cubic in x_j with
exactly one interior root, found by Newton on a sign-changing bracket.  One
cyclic sweep of these per-coordinate solves is the globalizer: it replaces
the Newton step wherever that cannot be taken (some b <= 0, a C + D
system that cannot be solved, or a backtrack that cannot keep u inside the
box while lowering the residual, as from a warm start outside it).  A solve has
converged only with every |u_j| < mu and every b_j > 0, as at every
stationary point.  The iterate is x throughout (never u), which avoids
forming C^{-1}.  The private solvers take the PenalizedProblem whole and
read C through its accessors (_diag, _matvec) and one partial-residual
rule, so a wide problem's C is never formed; the layout is read in data
and partition only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import PenalizedProblem, _check_init, _positive
from .errors import NumericalError
from .partition import _CPlusD

_MIN_STEP = 1e-4
_MAX_CYCLES = 2000
# a live lane that has met the residual test in this many cycles leaves
# unconverged: no float u is strictly inside its box (a converging lane
# meets it while outside the box in at most one cycle over the test suite
# and the benchmark's requests)
_STALL_CYCLES = 32
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
    since no x gives it a finite residual, and one whose residual keeps
    meeting the tolerance while u_tau cannot get strictly inside the box
    returns unconverged after a few dozen cycles.  converged means the
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
    with two exceptions.  Where rounding freezes u, f's slope in floats is
    mu^2 - u^2 alone, far below Newton's derivative, and Newton creeps: after
    a step that left f on its side and shrank it less than fourfold, the
    step is the secant through the last two points.  A step that leaves the
    bracket is replaced by the midpoint, or by the geometric mean when the
    bracket spans more than a factor 4, its lower end raised to b/(tau*mu^2
    + cjj), below which f < 0 too; so a root near 1/sqrt(2*cjj*tau), far
    under b/cjj, takes a few steps, not one per halving (a step too small to
    move x probes the next float).  Each operation in f rounds monotonically,
    so in floats f changes sign once in the bracket, and the upper end, the
    least point found with f >= 0, is the least float with f >= 0 whichever
    steps found it: there |u| < mu holds after rounding too.  a = 0
    short-circuits to the exact root 0.
    """
    if not (cjj > 0.0 and mu > 0.0 and tau > 0.0):
        raise ValueError("cjj, mu and tau must be positive")
    if a == 0.0:
        return 0.0
    b = abs(a)
    lo, hi = max(0.0, (b - mu) / cjj), b / cjj
    floor = b / (tau * mu * mu + cjj)  # f <= (mu^2 + cjj/tau) x - b/tau
    x = lo
    xp = fp = None
    for _ in range(_BRACKET_STEPS):
        u = b - cjj * x
        g = mu * mu - u * u
        f = g * x - u / tau
        if f < 0.0:
            lo = x
        else:
            hi = x
        if fp is not None and (f < 0.0) == (fp < 0.0) and 4.0 * abs(f) > abs(fp) and f != fp:
            xn = x - f * (x - xp) / (f - fp)
        else:
            xn = x - f / (g + 2.0 * u * cjj * x + cjj / tau)
        xp, fp = x, f
        if xn == x:
            xn = math.nextafter(x, hi if f < 0.0 else lo)
        if not lo < xn < hi:
            m = max(lo, floor)
            xn = math.sqrt(m) * math.sqrt(hi) if 0.0 < 4.0 * m < hi else 0.5 * (lo + hi)
            if not lo < xn < hi:
                break
        x = xn
    x = math.copysign(hi, a)
    if not abs(a - cjj * x) < mu:
        raise NumericalError(
            f"a={float(a)!r} cjj={float(cjj)!r} mu={float(mu)!r} "
            f"tau={float(tau)!r}: no interior root"
        )
    return x


def _residual(x, u, mu, tau):
    # l-inf norm of the stationarity conditions; row by row for a stack of
    # iterates, tau then a column
    return np.abs((mu * mu - u * u) * x - u / tau).max(axis=-1)


def _sweep(problem, x):
    """One cyclic coordinate sweep from x, the partial residuals by
    PenalizedProblem._partial_residuals; returns (x, u = w - Cx, res)."""
    w, mu, tau = problem.w, problem.mu, problem.tau
    dots, own, start, move = problem._partial_residuals()
    diag = problem._diag
    x = x.copy()
    v = start(x)
    for j in range(w.shape[0]):
        xj = coordinate_cubic(w[j] - dots[j](v) + own[j] * x[j], diag[j], mu, tau)
        dx = xj - x[j]
        if dx != 0.0:
            x[j] = xj
            if move is not None:
                move(j, dx)
    u = w - problem._matvec(x)
    return x, u, _residual(x, u, mu, tau)


def _dual(problem, x, rows=None):
    """u = w - C x for a stack x of lanes of one problem, or of a list of
    (problem, lo, hi) blocks, lanes lo:hi being problem's.

    Each block's product is taken over a contiguous copy of its lanes, laid
    out as its own stack would be, so its rounding is that stack's.  Given
    rows, a block none of whose lanes is in rows is skipped, its lanes of u
    left 0.
    """
    if type(problem) is not list:
        return problem.w - problem._matvec(x)
    u = np.zeros_like(x)
    for prob, lo, hi in problem:
        if rows is None or rows[lo:hi].any():
            u[lo:hi] = prob.w - prob._matvec(np.asfortranarray(x[lo:hi]))
    return u


def _lane(problem, k):
    # the problem of lane k
    if type(problem) is not list:
        return problem
    return next(prob for prob, lo, hi in problem if k < hi)


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
    a = mu * mu - u * u
    stepping = live & (b > 0.0).all(axis=1)
    e = np.maximum(a, 0.0) / b
    dx = (u / tau - a * x) / b
    _CPlusD.solve_stack(problem, e, dx, stepping)
    trying, t = stepping, 1.0
    while True:
        xt = x + dx
        ut = _dual(problem, xt, trying)
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

    The lanes are iterates of problem that differ only in tau and mu, or,
    where problem is a list of (problem, lo, hi) blocks, lanes lo:hi are
    that block's problem's; x0 is one start for all, or one row per lane.
    Each cycle moves
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
    lane that leaves clears its bit and has its exit cycle and converged
    flag recorded in two arrays, and its rows of x, u and res are never
    written again.  Every lane's SaddleSolution is built once, when the call
    returns, from those arrays and its rows.  The stacks are column-major
    (a coordinate's lanes contiguous), so the per-lane reductions and the
    (lanes, 1) columns of tau and mu run over contiguous memory; x_tau is a
    row of one row-major copy of x, contiguous as a one-lane solve's.
    Lanes run independently of each other: up to the rounding of the
    products and factorizations they share, each one's iterates are those
    it would take alone.  Blocks share none: each block's lanes take the
    iterates of a stack of its problem alone, and a cycle takes no product
    of a block none of whose lanes is still trying a step.

    A lane still live after _MAX_CYCLES cycles returns converged=False and
    cycles = _MAX_CYCLES.  So does, at the cycle it is found, a lane that
    has met the residual test in _STALL_CYCLES cycles without leaving: at a
    tau so large that the root's |u_j| lies within rounding of mu, no float
    u is strictly inside the box, the Newton step cannot move and the sweeps
    move x by ulps.  A start outside the box that the sweeps bring inside
    meets the residual test while outside it in a cycle or two at most.  A
    doomed lane, one whose mu * mu or 1 / tau is not a finite float, has no
    x with a finite residual: it is never live and returns its start
    unconverged with cycles = 0.
    """
    if taus is None:
        taus, mus = [problem.tau], [problem.mu]
    taus = np.array(taus, dtype=float)
    tau, mu = taus[:, None], np.array(mus, dtype=float)[:, None]
    inv_tau = 1.0 / tau
    tols = tol * np.maximum(1.0, inv_tau[:, 0])
    p = problem[0][0].p if type(problem) is list else problem.p
    x = np.empty((taus.size, p), order="F")
    x[:] = x0
    u = _dual(problem, x)

    # the Newton steps' discarded trial values may overflow or divide by
    # zero, and so may every residual of a doomed lane
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        res = _residual(x, u, mu, tau)
        live = (np.isfinite(mu * mu) & np.isfinite(inv_tau))[:, 0]
        # each lane's exit cycle and converged flag, set as it leaves, and
        # the number of cycles in which it met the residual test
        exit_cycle = np.where(live, _MAX_CYCLES, 0)
        converged = np.zeros(taus.size, dtype=bool)
        met = np.zeros(taus.size, dtype=int)
        cycles = 0 if live.any() else _MAX_CYCLES
        while cycles < _MAX_CYCLES:
            cycles += 1
            b = 2.0 * u * x + inv_tau
            done = live & (res < tols)
            near = done.any()
            if near:
                met += done
                done &= ((np.abs(u) < mu) & (b > 0.0)).all(axis=1)
            moved = _newton_step(problem, x, u, b, res, tau, mu, live)
            # done and moved are live: the rest of the live lanes sweep
            for k in (live ^ (done | moved)).nonzero()[0]:
                at_k = _lane(problem, k)._replace(tau=float(tau[k, 0]), mu=float(mu[k, 0]))
                x[k], u[k], res[k] = _sweep(at_k, x[k])
            # a lane leaves only in a cycle in which it met the residual test
            if near:
                exit_cycle[done] = cycles
                converged |= done
                live ^= done
                if cycles >= _STALL_CYCLES:
                    stalled = live & (met >= _STALL_CYCLES)
                    exit_cycle[stalled] = cycles
                    live ^= stalled
                if not live.any():
                    break
    return _solutions(u, np.ascontiguousarray(x), mu[:, 0], taus, exit_cycle, res, converged)


def _solutions(u, x, mus, taus, cycles, res, converged):
    """One SaddleSolution per row, its x_tau and u_tau views of the row.

    The scalars come from one tolist() of each array, and each object is
    made as PenalizedProblem._replace makes its copies, by object.__new__
    and its __dict__, without the frozen __init__'s per-field __setattr__.
    """
    out = []
    for uk, xk, m, t, c, r, ok in zip(u, x, mus.tolist(), taus.tolist(), cycles.tolist(),
                                      res.tolist(), converged.tolist()):
        sol = object.__new__(SaddleSolution)
        sol.__dict__.update(u_tau=uk, x_tau=xk, mu=m, tau=t, cycles=c, residual=r, converged=ok)
        out.append(sol)
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

    With mus, problem may also be a sequence of problems of one p, one per
    mu, row i then being problem[i] at mus[i]: cross-validation's folds,
    each fold's rows in a run.  A run of rows of one problem is its block,
    whose lanes are one contiguous run of the stack, its C x products and
    its C + D solves those of its own stack (_dual, _CPlusD.solve_stack):
    every lane takes the iterates it would take in a tau_path of its
    problem's rows alone.
    """
    taus = _positive("taus", taus)
    _positive("tol", tol)
    lanes = problem
    if not isinstance(problem, PenalizedProblem):
        if mus is None:
            raise ValueError("a sequence of problems needs mus, one per problem")
        lanes = list(problem)
    elif mus is None:
        mus = [problem.mu]
        init = None if init is None else [init]
    mus = _positive("mus", mus)
    m, n = mus.size, taus.size
    if lanes is not problem:
        if len(lanes) != m or any(q.p != lanes[0].p for q in lanes):
            raise ValueError("problem must hold one problem per mu, all of one p")
        problem, lanes = lanes[0], _blocks(lanes, n)
    init = np.zeros((m, problem.p)) if init is None else _check_init(problem, init, m)
    return _saddle_cd(
        lanes, np.repeat(init, n, axis=0), tol, np.tile(taus, m), np.repeat(mus, n)
    )


def _blocks(problems, n):
    """The stack of rows of n lanes each, row i of problems[i]: a list of
    (problem, lo, hi) blocks, one per run of rows of one problem, or the
    problem itself when there is one run."""
    blocks, lo = [], 0
    for i in range(1, len(problems) + 1):
        if i == len(problems) or problems[i] is not problems[lo]:
            blocks.append((problems[lo], lo * n, i * n))
            lo = i
    return blocks if len(blocks) > 1 else blocks[0][0]
