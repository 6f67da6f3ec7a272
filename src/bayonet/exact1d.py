"""Closed-form posterior for a single coefficient.

With one coordinate the normalizing integral of exp(-tau*(c*x^2 - 2*w*x +
2*mu*|x|)) splits at the origin into two half-Gaussian pieces, each of which
is an erfcx evaluation.  Everything here is exact up to floating point and
serves as the ground-truth oracle for the multivariate approximations.

This module is the one place that posterior is written, but for one pinned
copy.  The private raw-scalar kernels below (half-line logs, the
nonnegative-side probability, the unnormalized log density) also serve the
marginal curves, whose own-coordinate terms are its log density.  The Gibbs
sampler, whose conditionals are this posterior, inlines the half-line logs
and the nonnegative-side probability in its flat per-draw kernel,
gibbs._draw, for speed; the tests hold that copy bit for bit to these
kernels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import log_erfcx


@dataclass(frozen=True)
class OneDimProblem:
    """Single-coefficient problem: quadratic weight c, linear weight w,
    l1 weight mu, inverse temperature tau."""

    c: float
    w: float
    mu: float
    tau: float

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.c, self.mu, self.tau)):
            raise ValueError("c, mu and tau must be positive and finite")
        if not math.isfinite(self.w):
            raise ValueError("w must be finite")


def _half_line_logs(s, w, mu):
    # log of the two half-line integrals (x >= 0, x <= 0) with s = sqrt(tau/c),
    # up to the shared Gaussian prefactor
    return log_erfcx(s * (mu - w)), log_erfcx(s * (mu + w))


def _prob_nonneg(lp, lm):
    # expit(lp - lm): both branches are exact in their own tail
    d = lp - lm
    if d >= 0.0:
        return 1.0 / (1.0 + math.exp(-d))
    e = math.exp(d)
    return e / (1.0 + e)


def _log_density(c, w, mu, tau, x):
    # unnormalized log density; x may be a scalar or an array
    return -tau * (c * x * x - 2.0 * w * x + 2.0 * mu * np.abs(x))


def _logs(p):
    return _half_line_logs(math.sqrt(p.tau / p.c), p.w, p.mu)


def log_z_exact(p):
    """Log normalizing constant of the single-coefficient posterior.

    Combines the two half-line pieces in log space; no overflow for any
    positive tau.
    """
    lp, lm = _logs(p)
    half = 0.5 * (math.log(math.pi) - math.log(p.tau * p.c))
    return float(np.logaddexp(lm, lp)) + half - math.log(2.0)


def prob_nonnegative(p):
    """Posterior probability that the coefficient is >= 0.

    The nonnegative half-line weight over the total, written as expit of
    the log-weight difference so it is exact in both tails; > 1/2 exactly
    when w > 0.
    """
    return _prob_nonneg(*_logs(p))


def expectation_exact(p):
    """Posterior mean of the coefficient.

    w/c plus a shrinkage term (1 - 2*alpha)*mu/c where alpha is the
    nonnegative-side probability; the tanh form keeps it stable when one
    side carries essentially all the mass.
    """
    lp, lm = _logs(p)
    return p.w / p.c + (p.mu / p.c) * math.tanh(0.5 * (lm - lp))


def density_exact(p, x):
    """Normalized posterior density at x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(_log_density(p.c, p.w, p.mu, p.tau, x) - log_z_exact(p))
    return float(out) if out.ndim == 0 else out
