"""Closed-form posterior for a single coefficient.

With one coordinate the normalizing integral of exp(-tau*(c*x^2 - 2*w*x +
2*mu*|x|)) splits at the origin into two half-Gaussian pieces, each of which
is an erfcx evaluation.  Everything here is exact up to floating point and
serves as the ground-truth oracle for the multivariate approximations.

This module is the one place that posterior is written: one kernel,
_half_lines, evaluates the two half-line logs and log Z once, relative to
the peak exponent of w's side, and the four public functions read them.
The unnormalized log density also serves the marginal curves, whose
own-coordinate terms are its log density.  The Gibbs sampler, whose
conditionals are this posterior, draws them by accept-reject under an
envelope and shares no code with this module, so the two check the
multivariate approximations independently.

density_exact does not divide the unnormalized density by Z: near the mode
both carry a term of size tau*h_min, whose rounding swamps their O(log tau)
difference at large tau.  It writes both logs relative to the peak exponent
instead, so that term cancels exactly, before any rounding.
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


def _log_density(c, w, mu, tau, x):
    # unnormalized log density; x may be a scalar or an array
    return -tau * (c * x * x - 2.0 * w * x + 2.0 * mu * np.abs(x))


def _half_lines(c, w, mu, tau):
    # (P, near, far, log Z - P): the peak exponent P = tau*b^2/c of w's side,
    # b = |w| - mu (P = 0 when b <= 0), and the logs of w's half-line integral
    # (either one when w = 0), of the far one and of Z, each less P
    s = math.sqrt(tau / c)
    aw = abs(w)
    b = aw - mu
    if b > 0.0:
        peak = tau * b * b / c
        near = math.log(math.erfc(-s * b))
    else:
        peak = 0.0
        near = log_erfcx(-s * b)
    far = log_erfcx(s * (mu + aw)) - peak
    half = 0.5 * (math.log(math.pi) - math.log(tau) - math.log(c))
    return peak, near, far, float(np.logaddexp(near, far)) + half - math.log(2.0)


def log_z_exact(p):
    """Log normalizing constant of the single-coefficient posterior.

    Combines the two half-line pieces in log space; no overflow for any
    positive tau.
    """
    peak, _, _, log_z = _half_lines(p.c, p.w, p.mu, p.tau)
    return peak + log_z


def prob_nonnegative(p):
    """Posterior probability that the coefficient is >= 0.

    The nonnegative half-line weight over the total, written as expit of
    the log-weight difference so it is exact in both tails; > 1/2 exactly
    when w > 0.
    """
    _, near, far, _ = _half_lines(p.c, p.w, p.mu, p.tau)
    d = near - far if p.w >= 0.0 else far - near
    e = math.exp(-abs(d))
    return 1.0 / (1.0 + e) if d >= 0.0 else e / (1.0 + e)


def expectation_exact(p):
    """Posterior mean of the coefficient.

    w/c plus a shrinkage term (1 - 2*alpha)*mu/c where alpha is the
    nonnegative-side probability; the tanh form keeps it stable when one
    side carries essentially all the mass.
    """
    _, near, far, _ = _half_lines(p.c, p.w, p.mu, p.tau)
    return p.w / p.c + math.copysign(p.mu / p.c, p.w) * math.tanh(0.5 * (far - near))


def density_exact(p, x):
    """Normalized posterior density at x (scalar or array).

    The log density and log Z are both written relative to the peak
    exponent P of w's side (P = 0 when the mode is 0).  Terms of size P are
    never formed on w's side, so they cannot cancel, and the density keeps
    its relative accuracy near the mode at any tau.
    """
    x = np.asarray(x, dtype=float)
    c, mu, tau = p.c, p.mu, p.tau
    aw = abs(p.w)
    b = aw - mu
    peak, _, _, log_z = _half_lines(c, p.w, mu, tau)
    y = np.abs(x)
    # log density - P on w's side (either side when w = 0) and on the other
    if b > 0.0:
        near = -tau * (c * y - b) ** 2 / c
    else:
        near = -tau * y * (c * y - 2.0 * b)
    far = -tau * y * (c * y + 2.0 * (aw + mu)) - peak
    out = np.exp(np.where(x * p.w < 0.0, far, near) - log_z)
    return float(out) if out.ndim == 0 else out
