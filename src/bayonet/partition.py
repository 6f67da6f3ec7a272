"""Leading-order log-partition function and its determinant machinery.

Everything is assembled and returned in log space.  The Gaussian-curvature
correction enters through det(C + D) where D is a nonnegative diagonal built
from the stationary point.  _core is the one evaluation at a point: D, the
three terms of log Z and the factor of C + D, which log_partition,
posterior_sd and every node of a marginal curve read.  _CPlusD factors C + D
there and in the stationary-point solver's Newton step; for wide designs
(p > n) it factors an n x n core matrix (Woodbury identity and matrix
determinant lemma) instead of a p x p one.  Neither route keeps a copy of
the design, and both take the inverse diagonal from LAPACK dpotri.

_cholesky is the package's only Cholesky: _CPlusD (every factored C + D and
the zero-temperature active block) and PenalizedProblem's check of C call
it.  The stationary-point solver's lanes solve their small C + D systems by
one batched LU solve, no factor kept (_CPlusD.solve_stack).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .errors import NotConverged, NumericalOverflow, SingularMatrix, TransitionValue

_TRANSITION_TOL = 1e-8
# widest C + D whose rows are solved by one batched LU solve: from p = 22 on,
# with 5 rows, it costs more than a dpotrf and dpotrs call per row (1 BLAS
# thread); with 13 or more rows it still wins at p = 32
_STACK_MAX_P = 20


@dataclass(frozen=True)
class LogPartition:
    """log Z split into its additive pieces.

    log_z is exactly exp_term + log_det_term + prefactor_term.  d_tau is the
    curvature diagonal D at the stationary point, the one whose det(C + D)
    gives log_det_term.  At this order an observable factor q > 0 in the
    integrand contributes only its value at the stationary point, so a
    caller after log of the integral of q exp(-tau H) adds log(q(x_tau)).
    """

    log_z: float
    exp_term: float
    log_det_term: float
    prefactor_term: float
    d_tau: np.ndarray


def _cholesky(matrix):
    """Lower Cholesky factor of a symmetric matrix.

    The matrix goes to LAPACK dpotrf directly: scipy's wrappers check their
    arguments on every call, which costs several times the factorization
    itself at the sizes of the marginal curves' inner solves.  In their
    place, a NaN or inf fails the factorization or leaves a non-finite
    pivot, checked in O(p); either raises SingularMatrix.
    """
    chol, info = sla.lapack.dpotrf(matrix, lower=1, clean=1)
    if info != 0:
        raise SingularMatrix(f"dpotrf info={info}: not positive definite")
    if not np.isfinite(chol.diagonal()).all():
        raise SingularMatrix("non-finite pivot in a Cholesky factor")
    return chol


class _CPlusD:
    """One Cholesky factorization of the problem's C + diag(e), e >= 0.

    The route is read from the problem alone.  One that carries the design
    factor A of C = A'A/(2n) + lam*I, which build_problem and _restrict
    keep exactly while p > n (lam > 0 then), has the n x n core I + A
    diag(1/(e + lam)) A'/(2n) factored: solves go through the Woodbury
    identity and the determinant through the matrix determinant lemma.  Any
    other problem has the p x p C + diag(e) factored.  Factors come from
    _cholesky; a non-finite e + lam also raises SingularMatrix.  A factor
    keeps its Cholesky factor and, on the low-rank route, dp = e + lam and A.
    """

    def __init__(self, problem, e):
        factor = problem.low_rank_factor
        if factor is None:
            self._dp = None
            matrix = problem.c.copy()
            matrix.ravel()[:: matrix.shape[0] + 1] += e
        else:
            self._factor = factor
            self._dp = e + problem.lam
            if not np.isfinite(self._dp).all():
                raise SingularMatrix("non-finite entry in C + diag(e)")
            # B = A diag(dp)^{-1/2}, so the core I + B B'/(2n) is one
            # symmetric rank-p update
            scaled = factor / np.sqrt(self._dp)
            self._two_n = 2.0 * factor.shape[0]
            matrix = np.eye(factor.shape[0]) + scaled @ scaled.T / self._two_n
        self._chol = _cholesky(matrix)

    @staticmethod
    def solve_stack(problem, e, rhs, ok):
        """Row k of rhs becomes (C + diag(e[k]))^{-1} rhs[k], in place, for
        every row with ok[k]; ok[k] is cleared where that row's system
        cannot be solved, and rhs[k] is then meaningless.

        On the direct route, with p <= _STACK_MAX_P and at least 2 rows, the
        rows are solved by one batched LU solve, no factor kept.  C was
        verified positive definite when the problem was built, so a row
        whose e is finite and nonnegative has a positive definite C +
        diag(e); every other row is flagged before the solve.  Should the
        batched solve still raise, every row gets its own factor, as it
        does otherwise: so does a single row, whose solve is exactly
        _CPlusD(problem, e[k]).solve(rhs[k]), and every row on the low-rank
        route, where k n x n cores as one stack would cost k n^2 doubles and
        the flops dominate anyway.
        """
        rows, p = ok.nonzero()[0], problem.p
        if rows.size >= 2 and p <= _STACK_MAX_P and problem.low_rank_factor is None:
            er = e[rows]
            valid = ((er >= 0.0) & (er < math.inf)).all(axis=1)
            ok[rows[~valid]] = False
            rows, er = rows[valid], er[valid]
            matrix = np.empty((rows.size, p, p))
            matrix[:] = problem.c
            matrix.reshape(rows.size, p * p)[:, :: p + 1] += er
            try:
                rhs[rows] = np.linalg.solve(matrix, rhs[rows][..., None])[..., 0]
                return
            except np.linalg.LinAlgError:
                pass
        for k in rows:
            try:
                rhs[k] = _CPlusD(problem, e[k]).solve(rhs[k])
            except SingularMatrix:
                ok[k] = False

    def solve(self, rhs):
        """(C + diag(e))^{-1} rhs."""
        if self._dp is None:
            return sla.lapack.dpotrs(self._chol, rhs, lower=1)[0]
        y = rhs / self._dp
        z = sla.lapack.dpotrs(self._chol, self._factor @ y, lower=1)[0]
        return y - (self._factor.T @ z) / (self._dp * self._two_n)

    def log_det(self):
        """log det(C + diag(e))."""
        out = 2.0 * float(np.sum(np.log(np.diagonal(self._chol))))
        if self._dp is not None:
            out += float(np.sum(np.log(self._dp)))
        return out

    def inv_diag(self):
        """Diagonal of (C + diag(e))^{-1} from one dpotri inverse of the
        factored matrix.  On the low-rank route that is the core K: entry j
        is (1 - a_j' K^{-1} a_j / (2n dp_j)) / dp_j by Woodbury, A' K^{-1}
        one dsymm call on the lower triangle that dpotri fills."""
        inv, info = sla.lapack.dpotri(self._chol, lower=1)
        if info != 0:
            raise SingularMatrix(f"dpotri info={info}")
        if self._dp is None:
            return np.diagonal(inv).copy()
        at_kinv = sla.blas.dsymm(1.0, inv, self._factor.T, side=1, lower=1)
        quad = np.einsum("ij,ji->j", self._factor, at_kinv)
        return (1.0 - quad / (self._two_n * self._dp)) / self._dp


def log_det_c_plus_d(problem, d_tau, method="auto"):
    """log det(C + diag(d_tau)).

    method picks the route.  "auto" factors problem's own C + D, which
    takes the n-dimensional route exactly when problem carries its design
    factor (p > n).  "lowrank" does the same but requires that factor.
    "direct" factors the p x p matrix problem.c + D (on a wide problem, c
    is built from the design).
    """
    d = np.asarray(d_tau, dtype=float)
    if d.shape != (problem.p,):
        raise ValueError(f"d_tau must have length {problem.p}")
    if np.any(d < 0.0):
        raise ValueError("d_tau entries must be nonnegative")
    if method == "direct":
        problem = problem._replace(c=problem.c, low_rank_factor=None)
    elif method == "lowrank" and problem.low_rank_factor is None:
        raise ValueError("low-rank route needs the design factor")
    elif method not in ("auto", "lowrank"):
        raise ValueError(f"unknown method {method!r}")
    return _CPlusD(problem, d).log_det()


def _core(problem, x, u):
    """The one evaluation of log Z at a point (x, u): (LogPartition, factor).

    log_partition, posterior_sd and every node of a marginal curve read it.
    factor is the _CPlusD of C + D behind log_det_term: posterior_sd takes
    its inverse diagonal, a curve's next inner solve its tangent step.
    Unchecked; at an extreme mu or tau D overflows or is 0/0, and _CPlusD
    refuses it.
    """
    w, mu, tau, p = problem.w, problem.mu, problem.tau, problem.p
    with np.errstate(all="ignore"):
        d = tau * (mu * mu - u * u) ** 2 / (mu * mu + u * u)
    exp_term = tau * float((w - u) @ x)
    if not math.isfinite(exp_term):
        raise NumericalOverflow(f"exponential term is {exp_term}")
    factor = _CPlusD(problem, d)
    log_det = -0.5 * factor.log_det()
    pref = (
        p * math.log(mu)
        - 0.5 * p * math.log(tau)
        - 0.5 * float(np.sum(np.log(mu * mu + u * u)))
    )
    return LogPartition(exp_term + log_det + pref, exp_term, log_det, pref, d), factor


def _check_saddle(problem, saddle):
    """Refuse a stationary point solved at another tau or mu, or unconverged."""
    if saddle.tau != problem.tau:
        raise ValueError("saddle was computed at a different tau")
    if saddle.mu != problem.mu:
        raise ValueError("saddle was computed at a different mu")
    if not saddle.converged:
        raise NotConverged(saddle.cycles, "stationary point not converged")


def log_partition(problem, saddle):
    """Leading-order log Z at the converged stationary point.

    The exponential term is evaluated as tau*(w - u)'x, which equals the
    quadratic form tau*(w - u)'C^{-1}(w - u) without any linear solve since
    x is exactly C^{-1}(w - u) at the stationary point.
    """
    _check_saddle(problem, saddle)
    return _core(problem, saddle.x_tau, saddle.u_tau)[0]


def log_partition_zero_temp(problem, ml):
    """Infinite-tau limit of log Z from the penalized ML solution alone.

    The active coordinates contribute a Gaussian block, the zero coordinates
    a product of shifted two-sided exponentials evaluated at the limiting
    dual vector, which is w - C x_hat by optimality.
    Diagnostic only: the limit is discontinuous at l1 weights where a
    coordinate sits exactly on its inclusion boundary, and such points are
    rejected via TransitionValue rather than papered over.
    """
    if not ml.converged:
        raise NotConverged(ml.cycles, "ML solution not converged")
    x = ml.x_hat
    u = problem.w - problem._matvec(x)
    mu, tau = problem.mu, problem.tau
    for j in range(problem.p):
        if abs(x[j]) < _TRANSITION_TOL and mu - abs(u[j]) < _TRANSITION_TOL:
            raise TransitionValue(j)
    active = np.array(ml.active_set, dtype=int)
    inactive = np.setdiff1d(np.arange(problem.p), active)
    n_act = active.size
    out = -(0.5 * n_act + inactive.size) * math.log(tau)
    out -= 0.5 * n_act * math.log(2.0)
    if n_act:
        f = _CPlusD(problem._restrict(active), np.zeros(n_act))
        v = problem.w[active] - mu * np.sign(u[active])
        out += tau * float(v @ f.solve(v)) - 0.5 * f.log_det()
    if inactive.size:
        uz = u[inactive]
        out += float(np.sum(np.log(mu / (mu * mu - uz * uz))))
    return out
