"""log(erfcx), seeded RNG streams and the standard truncated-normal draw.

The half-Gaussian integrals that appear throughout this package are all
expressed through the scaled complementary error function erfcx(x) =
exp(x^2) erfc(x), and every caller needs its logarithm, so log_erfcx is the
one special function the rest of the package imports.  On [-25, 5] it is
x^2 + log(erfc(x)) from the math module, which keeps full relative accuracy
there; above 5 it is the log of scipy.special's erfcx, and below -25 the
erfc reflection keeps the log from overflowing.  _std_lower_truncated draws
a standard normal conditioned on Z >= a and consumes uniforms only: scipy's
erfc and ndtri for the inverse-CDF route, and -log(1 - U) for the
exponential of the far-tail rejection route.  The Gibbs sampler's one-sided
draws are that draw, shifted and scaled; gibbs._draw inlines it, and the
tests hold the inlined copy to it bit for bit.
"""

import math
import operator

import numpy as np
from scipy import special as _sp

SQRT2 = math.sqrt(2.0)
_BLOCK = 1024  # uniforms drawn from the generator per refill


def log_erfcx(x):
    """log(erfcx(x)), valid on the whole real line.

    On [-25, 5] this is x^2 + log(erfc(x)) with math.erfc, whose relative
    accuracy carries over to the sum (within ~2e-15 of a 50-digit
    reference).  Above 5, erfc heads for underflow and the sum cancels, so
    scipy's erfcx is used; below -25 the direct log of erfcx would overflow
    (it grows like 2*exp(x^2)), so the identity erfcx(x) = exp(x^2)*(2 -
    erfc(-x)) is used there.
    """
    if x > 5.0:
        return math.log(_sp.erfcx(x))
    if x >= -25.0:
        return x * x + math.log(math.erfc(x))
    return x * x + math.log(2.0 - _sp.erfc(-x))


class RngStream:
    """Deterministic random stream; same seed, same draws, bit for bit.

    Thin wrapper over a counter-based generator (numpy Philox).  uniform()
    serves Python floats from a block of _BLOCK doubles that one
    Generator.random call fills, so its values are exactly those of
    successive scalar Generator.random() calls; the generator itself runs up
    to a block ahead of them.  permutation() draws from the generator
    directly, so a stream that has never served a uniform permutes exactly
    as a fresh Generator on the same seed.  Each stream is meant to be owned
    by a single consumer; concurrent samplers should each get their own
    stream with a distinct seed.
    """

    def __init__(self, seed):
        seed = operator.index(seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        self.seed = seed
        self._gen = np.random.Generator(np.random.Philox(seed))
        self._buf = []  # the rest of the current block, next value last

    def uniform(self):
        """One U(0,1) variate, a Python float in [0, 1)."""
        buf = self._buf
        if not buf:
            buf.extend(reversed(self._gen.random(_BLOCK).tolist()))
        return buf.pop()

    def permutation(self, n):
        """A uniformly random permutation of range(n)."""
        return self._gen.permutation(n)


def _std_lower_truncated(a, rng):
    """Draw Z ~ N(0,1) conditioned on Z >= a, from rng's uniforms only.

    Two regimes.  For a <= 8 the inverse-CDF route is exact and uses the
    upper-tail mass directly (never 1 - tiny, which would lose all
    precision): with q_a = P(Z >= a) computed via erfc, the draw is
    -ndtri(U * q_a) for U uniform.  Far in the tail the double-precision
    quantile function runs out of resolution, so for a > 8 we switch to the
    classic shifted-exponential rejection sampler whose acceptance rate
    tends to 1 as a grows; its exponential is -log(1 - U), finite because U
    < 1.
    """
    if a <= 8.0:
        qa = 0.5 * _sp.erfc(a / SQRT2)
        return -float(_sp.ndtri((1.0 - rng.uniform()) * qa))
    alpha = 0.5 * (a + math.sqrt(a * a + 4.0))
    while True:
        z = a - math.log(1.0 - rng.uniform()) / alpha
        d = z - alpha
        if rng.uniform() <= math.exp(-0.5 * d * d):
            return z
