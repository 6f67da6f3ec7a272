"""Penalized maximum-likelihood solver (active-set orthant solves).

Minimizes x'Cx - 2w'x + 2mu*||x||_1.  For a fixed support A and sign
vector s the minimizer is exact: x_A = C_AA^{-1}(w_A - mu s_A), the
classical active-set lasso solve (Osborne, Presnell & Turlach 2000).

The solver runs a stack of lanes at one mu, each lane a problem of its own
and its start (_ml_stack); solve_ml and the marginal curves' inner fits are
the one-lane case, and hyper._ml_path runs one stack per mu with one lane
per cross-validation fold.  One outer step (_step) moves every lane still
running.  For each lane it takes the active set A, the nonzero coordinates
plus the zero ones that violate |r_j| <= mu for the residual r = w - Cx of
the lane's own problem, and the signs s, and solves on that orthant: the
principal block C_AA straight through partition._cholesky and LAPACK
dpotrs, or while |A| > n the n x n core of partition._CPlusD's low-rank
route, the block following PenalizedProblem._restrict's rule, so no p x p
C of a wide problem is formed.  A result whose signs all agree with s is
kept, and the residual at it verifies the fit.  Down a descending mu column
the warm start almost always has the right support and signs, and one step
ends the fit.  A lane whose signs disagree or whose factor fails goes on,
in later steps of the same stack, in glmnet-style soft-thresholded
coordinate sweeps over its active block (Friedman, Hastie & Tibshirani
2010), the globalizer, exactly as it would alone.  They read the partial
residuals by the problem's one rule, PenalizedProblem._partial_residuals:
fresh rows of the block, or while |A| > n columns of the design, at
O(|A| min(|A|, n)) per sweep with no |A| x |A| block formed.  The minimizer
doubles as the warm start every other solver in the package builds on,
hence the tight default tolerance of the sweeps.
"""

from dataclasses import dataclass

import numpy as np

from .data import _check_init, _cost, _positive
from .errors import SingularMatrix
from .partition import _CPlusD, _cholesky, _flapack

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
    with s or C_AA cannot be factored.  A block C_AA goes straight to
    _cholesky and dpotrs; a sub that keeps the design (|A| > n) solves
    through its n x n core, _CPlusD's low-rank route."""
    if not s.size:
        return s
    rhs = sub.w - mu * s
    try:
        if sub.low_rank_factor is None:
            xa = _flapack.dpotrs(_cholesky(sub.c), rhs, lower=1)[0]
        else:
            xa = _CPlusD(sub, np.zeros(s.size)).solve(rhs)
    except SingularMatrix:
        return None
    return xa if (np.sign(xa) == s).all() else None


class _Lane:
    """One fit of a stack between outer steps: its problem and iterate x,
    the residual r = w - Cx and the zero coordinates grown that violate
    |r_j| <= mu there, the sweeps left before its next orthant solve
    (wait), its cycles, and converged, None while it runs."""

    __slots__ = ("problem", "x", "r", "grown", "wait", "cycles", "converged")

    def __init__(self, problem, x0, mu):
        self.problem = problem
        self.x = np.zeros(problem.p) if x0 is None else np.array(x0, dtype=float)
        self.wait, self.cycles, self.converged = 0, 0, None
        self._verify(mu, None)

    def _verify(self, mu, done):
        """Take the residual at x and the violators; with done, the block
        of the solve or sweep just made, its coordinates are exempt, and the
        lane has converged when no violator is left."""
        x, problem = self.x, self.problem
        self.r = problem.w - problem._matvec(x)
        grown = (np.abs(self.r) > mu) & (x == 0.0)
        if done is not None:
            grown[done] = False
            if not grown.any():
                self.converged = True
        self.grown = grown


def _sweeps(lane, sub, nz, mu, tol):
    """The coordinate sweeps of lane's block nz, sub its restricted
    problem, in place; returns nz when a sweep met tol, else None."""
    done = None
    eps = max(tol, _LOOSE_TOL) if lane.grown.any() else tol
    rule = sub._partial_residuals()
    wa, da, xa = sub.w.tolist(), sub._diag.tolist(), lane.x[nz]
    while lane.cycles < _MAX_CYCLES:
        lane.cycles += 1
        lane.wait -= 1
        dmax = _block_sweep(rule, wa, da, mu, xa)
        scale = max(1.0, float(np.abs(xa).max(initial=0.0)))
        if dmax < tol * scale:
            done = nz
        if dmax < eps * scale:
            lane.wait = 0
        if not lane.wait or not xa.all():
            break
    lane.x[nz] = xa
    return done


def _step(lanes, mu, tol):
    """One outer step of every lane of a stack, in place.

    A lane whose cycle budget is spent leaves unconverged.  Otherwise its
    active set A is the nonzeros and the violators, s the signs (of x, or
    of r for a violator); unless it still waits on sweeps, one orthant
    solve on A counts a cycle, and a result whose signs all agree with s
    is kept.  A lane whose solve was not kept or not tried sweeps its block
    (_sweeps).  Either way the residual at the new x verifies it.
    """
    for lane in lanes:
        if lane.cycles == _MAX_CYCLES:
            lane.converged = False
            continue
        x, grown = lane.x, lane.grown
        nz = ((x != 0.0) | grown).nonzero()[0]
        sub = lane.problem._restrict(nz)
        if lane.wait <= 0:
            lane.cycles += 1
            s = np.sign(np.where(grown, lane.r, x)[nz])
            xa = _orthant_solve(sub, mu, s)
            if xa is not None:
                x[nz] = xa
                lane._verify(mu, nz)
                continue
            lane.wait = max(1, nz.size // _SOLVE_SWEEPS)
        lane._verify(mu, _sweeps(lane, sub, nz, mu, tol))


def _ml_stack(problems, starts, mu, tol):
    """Minimize the cost of every lane at l1 weight mu in lockstep: lane k
    is problems[k] (its own mu is not read) from starts[k], None for the
    zero vector.  Returns one (x, cycles, converged) per lane.

    Each call of _step moves every lane still running by one outer step,
    until each has converged or spent its cycle budget.  Lanes share no
    state, so lane k ends, bit for bit, as a stack of it alone would: as
    solve_ml(problems[k].with_mu(mu), tol, starts[k]) does.
    """
    lanes = [_Lane(problem, x0, mu) for problem, x0 in zip(problems, starts)]
    live = lanes
    while live:
        _step(live, mu, tol)
        live = [lane for lane in live if lane.converged is None]
    return [(lane.x, lane.cycles, lane.converged) for lane in lanes]


def _ml_cd(problem, x0, tol):
    """Active-set solver core; returns (x, cycles, converged): the one-lane
    _ml_stack at problem's own mu.

    x0 is the start (None: the zero vector); marginal_ml_approx warm-starts
    each grid point at its neighbor's minimizer.  Each outer step takes the
    active set A of nonzeros and violators of the residual r = w - Cx and
    the signs s (of x, or of r for a violator), and solves on that orthant;
    a result whose signs all agree with s is kept.  Otherwise the block of A
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
    return _ml_stack([problem], [x0], problem.mu, tol)[0]


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
