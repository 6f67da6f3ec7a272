"""log(erfcx), seeded RNG streams and the standard truncated-normal draw.

The half-Gaussian integrals that appear throughout this package are all
expressed through the scaled complementary error function erfcx(x) =
exp(x^2) erfc(x), and every caller needs its logarithm, so log_erfcx is the
one special function the rest of the package imports.  The Gibbs sampler's
one-sided draws reduce to _std_lower_truncated, a standard normal
conditioned on Z >= a.  Both evaluate scipy.special's erfcx, erfc and ndtri
directly (rational/continued-fraction based, no exp(x^2)*erfc(x)
composition anywhere).
"""

import math
import operator

import numpy as np
from scipy import special as _sp

SQRT2 = math.sqrt(2.0)


def log_erfcx(x):
    """log(erfcx(x)), valid on the whole real line.

    For x <= -25 the direct log would overflow (erfcx grows like
    2*exp(x^2)), so the identity erfcx(x) = exp(x^2)*(2 - erfc(-x)) is used
    there; the two branches agree to ~1e-15 at the switch point.
    """
    if x >= -25.0:
        return math.log(_sp.erfcx(x))
    return x * x + math.log(2.0 - _sp.erfc(-x))


class RngStream:
    """Deterministic random stream; same seed, same draws, bit for bit.

    Thin wrapper over a counter-based generator (numpy Philox).  Each stream
    is meant to be owned by a single consumer; concurrent samplers should
    each get their own stream with a distinct seed.
    """

    def __init__(self, seed):
        seed = operator.index(seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        self.seed = seed
        self._gen = np.random.Generator(np.random.Philox(seed))

    def uniform(self):
        """One U(0,1) variate."""
        return self._gen.random()

    def exponential(self):
        """One standard exponential variate."""
        return self._gen.standard_exponential()

    def permutation(self, n):
        """A uniformly random permutation of range(n)."""
        return self._gen.permutation(n)


def _std_lower_truncated(a, rng):
    """Draw Z ~ N(0,1) conditioned on Z >= a.

    Two regimes.  For a <= 8 the inverse-CDF route is exact and uses the
    upper-tail mass directly (never 1 - tiny, which would lose all
    precision): with q_a = P(Z >= a) computed via erfc, the draw is
    -ndtri(U * q_a) for U uniform.  Far in the tail the double-precision
    quantile function runs out of resolution, so for a > 8 we switch to the
    classic shifted-exponential rejection sampler whose acceptance rate
    tends to 1 as a grows.
    """
    if a <= 8.0:
        qa = 0.5 * _sp.erfc(a / SQRT2)
        return -float(_sp.ndtri((1.0 - rng.uniform()) * qa))
    alpha = 0.5 * (a + math.sqrt(a * a + 4.0))
    while True:
        z = a + rng.exponential() / alpha
        d = z - alpha
        if rng.uniform() <= math.exp(-0.5 * d * d):
            return z
