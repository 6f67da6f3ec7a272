"""Reference Gibbs sampler for the full posterior.

Conditioned on the other coordinates, each coefficient has the exact
single-coordinate posterior with linear term equal to its partial residual,
so a sweep is p draws from a two-sided truncated-normal mixture.  This is an
oracle for validating the deterministic approximations, not a production
sampler: no adaptation, no diagnostics beyond an internal bookkeeping guard.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .special import RngStream, log_erfcx, sample_truncated_normal


@dataclass(frozen=True)
class GibbsChain:
    """Retained posterior samples plus the settings that produced them.

    samples has one retained sweep per row; rerunning with the same problem,
    init and seed reproduces it bit for bit.
    """

    samples: np.ndarray
    total_sweeps: int
    burn_in: int
    thin: int
    seed: int


def _draw(cjj, a, mu, s, sd, rng):
    """One draw from the single-coordinate conditional posterior.

    s = sqrt(tau/c) and sd = 1/sqrt(2*tau*c) are passed in precomputed.  The
    nonnegative-side weight comes from the same erfcx ratio as the exact
    single-coordinate formulas; the log difference is clamped at +/-700
    before exponentiation (beyond that the weight is 0 or 1 to double
    precision anyway).
    """
    d = log_erfcx(s * (mu + a)) - log_erfcx(s * (mu - a))
    if d > 700.0:
        alpha = 0.0
    elif d < -700.0:
        alpha = 1.0
    else:
        alpha = 1.0 / (1.0 + math.exp(d))
    if rng.uniform() < alpha:
        return sample_truncated_normal((a - mu) / cjj, sd, "nonneg", rng)
    return sample_truncated_normal((a + mu) / cjj, sd, "nonpos", rng)


def sample_conditional_1d(c, a, mu, tau, rng):
    """Sample the posterior of one coefficient with partial residual a."""
    if not (c > 0.0 and mu > 0.0 and tau > 0.0):
        raise ValueError("c, mu and tau must be positive")
    s = math.sqrt(tau / c)
    sd = 1.0 / math.sqrt(2.0 * tau * c)
    return _draw(c, a, mu, s, sd, rng)


def run_gibbs(problem, init, sweeps, burn_in=None, thin=1, seed=0):
    """Cyclic Gibbs sweeps over all coordinates.

    Partial residuals r = w - Cx are updated incrementally (O(p) per
    coordinate) and checked against a fresh w - Cx every 100th sweep; drift
    beyond 1e-10 (a bug, or rounding on huge samples at tiny tau) raises
    NumericalError.  burn_in defaults to 10% of sweeps.  Retained count is
    (sweeps - burn_in) // thin.
    """
    if burn_in is None:
        burn_in = sweeps // 10
    if burn_in < 0 or sweeps <= burn_in:
        raise ValueError("need sweeps > burn_in >= 0")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    x = np.asarray(init, dtype=float).copy()
    if x.shape != (problem.p,):
        raise ValueError(f"init must have length {problem.p}")
    c, w, mu, tau = problem.c, problem.w, problem.mu, problem.tau
    p = problem.p
    rng = RngStream(seed)
    diag = np.diagonal(c).copy()
    cols = [c[:, j].copy() for j in range(p)]
    svals = np.sqrt(tau / diag)
    sds = 1.0 / np.sqrt(2.0 * tau * diag)
    r = w - c @ x
    keep = np.empty(((sweeps - burn_in) // thin, p))
    k = 0
    for sweep in range(1, sweeps + 1):
        for j in range(p):
            aj = r[j] + diag[j] * x[j]
            xj = _draw(diag[j], aj, mu, svals[j], sds[j], rng)
            dx = xj - x[j]
            if dx != 0.0:
                r -= cols[j] * dx
                x[j] = xj
        if sweep % 100 == 0:
            fresh = w - c @ x
            if float(np.max(np.abs(fresh - r))) >= 1e-10:
                raise NumericalError("partial-residual drift guard tripped")
            r = fresh
        if sweep > burn_in and (sweep - burn_in) % thin == 0:
            keep[k] = x
            k += 1
    keep.setflags(write=False)
    return GibbsChain(
        samples=keep,
        total_sweeps=sweeps,
        burn_in=burn_in,
        thin=thin,
        seed=int(seed),
    )
