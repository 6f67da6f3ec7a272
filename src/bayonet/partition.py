"""Leading-order log-partition function and its determinant machinery.

Everything is assembled and returned in log space.  The Gaussian-curvature
correction enters through det(C + D) where D is a nonnegative diagonal built
from the stationary point.  One factorization of C + D serves three users:
this determinant, the Newton step of the stationary-point solver and the
posterior standard deviations.  For wide designs (p > n) it is a Cholesky
of an n x n core matrix (Woodbury identity and matrix determinant lemma)
instead of a p x p one.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .errors import NotConverged, NumericalOverflow, SingularMatrix, TransitionValue

_TRANSITION_TOL = 1e-8


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


def _d_diag(u, mu, tau):
    return tau * (mu * mu - u * u) ** 2 / (mu * mu + u * u)


class _CPlusD:
    """One Cholesky factorization of C + diag(e), e >= 0.

    This is the only place the determinant route is chosen.  When the
    design factor A of C = A'A/(2n) + lam*I is at hand, lam > 0 and p > n,
    the n x n core I + A diag(1/(e + lam)) A'/(2n) is factored instead:
    solves go through the Woodbury identity and the determinant through the
    matrix determinant lemma, so nothing p x p is factored.  Otherwise C +
    diag(e) itself is factored.  A factorization that fails raises
    SingularMatrix.
    """

    def __init__(self, c, e, lam, factor, method="auto"):
        if method == "auto":
            lowrank = factor is not None and lam > 0.0 and c.shape[0] > factor.shape[0]
            method = "lowrank" if lowrank else "direct"
        if method == "lowrank":
            if factor is None:
                raise ValueError("low-rank route needs the design factor")
            if lam <= 0.0:
                raise ValueError("low-rank route needs lam > 0")
            self._factor = factor
            self._dp = e + lam
            # B = A diag(dp)^{-1/2}, so the core I + B B'/(2n) is one
            # symmetric rank-p update
            self._scaled = factor / np.sqrt(self._dp)
            self._two_n = 2.0 * factor.shape[0]
            matrix = np.eye(factor.shape[0]) + self._scaled @ self._scaled.T / self._two_n
        else:
            self._dp = None
            matrix = c + np.diag(e)
        try:
            self._chol = sla.cholesky(matrix, lower=True)
        except sla.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from None

    def solve(self, rhs):
        """(C + diag(e))^{-1} rhs."""
        if self._dp is None:
            return sla.cho_solve((self._chol, True), rhs)
        y = rhs / self._dp
        z = sla.cho_solve((self._chol, True), self._factor @ y)
        return y - (self._factor.T @ z) / (self._dp * self._two_n)

    def log_det(self):
        """log det(C + diag(e))."""
        out = 2.0 * float(np.sum(np.log(np.diagonal(self._chol))))
        if self._dp is not None:
            out += float(np.sum(np.log(self._dp)))
        return out

    def inv_diag(self):
        """Diagonal of (C + diag(e))^{-1}."""
        if self._dp is None:
            inv, info = sla.lapack.dpotri(self._chol, lower=1)
            if info != 0:
                raise SingularMatrix(f"dpotri info={info}")
            return np.diagonal(inv).copy()
        m = sla.solve_triangular(self._chol, self._scaled, lower=True)
        return (1.0 - np.sum(m * m, axis=0) / self._two_n) / self._dp


def log_det_c_plus_d(problem, d_tau, method="auto"):
    """log det(C + diag(d_tau)).

    method "direct" factors the p x p matrix, "lowrank" goes through the
    n-dimensional determinant lemma (requires the problem to carry its
    design factor and lam > 0), "auto" picks lowrank exactly when it is
    available and p > n.
    """
    d = np.asarray(d_tau, dtype=float)
    if d.shape != (problem.p,):
        raise ValueError(f"d_tau must have length {problem.p}")
    if np.any(d < 0.0):
        raise ValueError("d_tau entries must be nonnegative")
    if method not in ("auto", "direct", "lowrank"):
        raise ValueError(f"unknown method {method!r}")
    return _CPlusD(problem.c, d, problem.lam, problem.low_rank_factor, method).log_det()


def _core(c, w, mu, tau, x, u, lam, factor):
    """Array-level evaluation shared with the marginal-density code."""
    p = w.shape[0]
    d = _d_diag(u, mu, tau)
    exp_term = tau * float((w - u) @ x)
    if not math.isfinite(exp_term):
        raise NumericalOverflow(f"exponential term is {exp_term}")
    log_det_term = -0.5 * _CPlusD(c, d, lam, factor).log_det()
    prefactor_term = (
        p * math.log(mu)
        - 0.5 * p * math.log(tau)
        - 0.5 * float(np.sum(np.log(mu * mu + u * u)))
    )
    return exp_term, log_det_term, prefactor_term, d


def _check_saddle(problem, saddle):
    """Refuse a stationary point solved at another tau or not converged."""
    if saddle.tau != problem.tau:
        raise ValueError("saddle was computed at a different tau")
    if not saddle.converged:
        raise NotConverged(saddle.cycles, "stationary point not converged")


def log_partition(problem, saddle):
    """Leading-order log Z at the converged stationary point.

    The exponential term is evaluated as tau*(w - u)'x, which equals the
    quadratic form tau*(w - u)'C^{-1}(w - u) without any linear solve since
    x is exactly C^{-1}(w - u) at the stationary point.
    """
    _check_saddle(problem, saddle)
    exp_term, log_det_term, prefactor_term, d = _core(
        problem.c,
        problem.w,
        problem.mu,
        problem.tau,
        saddle.x_tau,
        saddle.u_tau,
        problem.lam,
        problem.low_rank_factor,
    )
    total = exp_term + log_det_term + prefactor_term
    return LogPartition(
        log_z=total,
        exp_term=exp_term,
        log_det_term=log_det_term,
        prefactor_term=prefactor_term,
        d_tau=d,
    )


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
    u = problem.w - problem.c @ x
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
        c_act = problem.c[np.ix_(active, active)]
        v = problem.w[active] - mu * np.sign(u[active])
        try:
            chol = sla.cholesky(c_act, lower=True)
        except sla.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from None
        half = sla.solve_triangular(chol, v, lower=True)
        out += tau * float(half @ half)
        out -= float(np.sum(np.log(np.diagonal(chol))))
    if inactive.size:
        uz = u[inactive]
        out += float(np.sum(np.log(mu / (mu * mu - uz * uz))))
    return out
