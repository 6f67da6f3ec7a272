"""log(erfcx) and seeded RNG streams.

The half-Gaussian integrals that appear throughout this package are all
expressed through the scaled complementary error function erfcx(x) =
exp(x^2) erfc(x), and every caller needs its logarithm, so log_erfcx is the
one special function the rest of the package imports.  On [-25, 5] it is
x^2 + log(erfc(x)) from the math module, which keeps full relative accuracy
there; below -25 the erfc reflection, again with math.erfc, keeps the log
from overflowing; above 5 it is the log of scipy.special's erfcx.  That
branch is the only reader of scipy.special, and it imports erfcx on its
first call: only the exact 1-D oracle (exact1d) calls log_erfcx, no CLI verb
does, so no verb's process pays the time and memory of importing
scipy.special.  RngStream serves the Gibbs sampler's envelope draws, which
read its normals as well as its uniforms, and the cross-validation folds,
which read its permutation.

A draw of the sampler reads about two values from the stream, so each value
is served by a C-level call: uniform and normal are the __next__ methods of
itertools chains over blocks that the generators fill on demand, one block
read ahead at most.  The refills close over the generators' bound methods,
not the stream, so a dropped stream is freed at once, with no reference
cycle left for the cyclic collector.
"""

import math
import operator
from itertools import chain

import numpy as np

_BLOCK = 1024  # uniforms or normals drawn from a generator per refill


def log_erfcx(x):
    """log(erfcx(x)), valid on the whole real line.

    On [-25, 5] this is x^2 + log(erfc(x)) with math.erfc, whose relative
    accuracy carries over to the sum (within ~2e-15 of a 50-digit
    reference).  Above 5, erfc heads for underflow and the sum cancels, so
    scipy.special's erfcx is used, imported here on the first such call so
    that a process that never evaluates this branch never loads
    scipy.special; below -25 the direct log of erfcx would overflow (it grows
    like 2*exp(x^2)), so the identity erfcx(x) = exp(x^2)*(2 - erfc(-x)) is
    used there, with math.erfc (2 - erfc(-x) rounds to 2.0 there whichever
    erfc is used).
    """
    if x > 5.0:
        from scipy.special import erfcx

        return math.log(erfcx(x))
    if x >= -25.0:
        return x * x + math.log(math.erfc(x))
    return x * x + math.log(2.0 - math.erfc(-x))


class RngStream:
    """Deterministic random stream; same seed, same draws, bit for bit.

    Thin wrapper over a counter-based generator (numpy Philox).  uniform()
    serves Python floats from blocks of _BLOCK doubles, one Generator.random
    call each, so its values are exactly those of successive scalar
    Generator.random() calls; the generator itself runs up to a block ahead
    of them.  normal() serves standard normals the same way from a second
    generator, Philox on the same seed jumped by 2^128 draws, so reading
    normals leaves the uniforms, and uniform()'s promise, as they were.
    permutation() draws from the uniforms' generator directly, and no block
    is drawn before the first value is asked for, so a stream that has never
    served a uniform permutes exactly as a fresh Generator on the same seed.
    uniform and normal are not Python methods but the C-level __next__ of
    a chain over the blocks (_served), whose refill holds the generator's
    bound method and not the stream, so no reference cycle keeps a dropped
    stream, or its two blocks, waiting for the cyclic collector.  All three
    read numpy Generator streams, which numpy does not promise across
    versions, so same seed, same draws holds for one numpy version.  Each
    stream is meant to be owned by a single consumer; concurrent samplers
    should each get their own stream with a distinct seed.
    """

    def __init__(self, seed):
        seed = operator.index(seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        self.seed = seed
        self._gen = np.random.Generator(np.random.Philox(seed))
        normals = np.random.Generator(np.random.Philox(seed).jumped())
        # uniform(): one U(0,1) variate, a Python float in [0, 1);
        # normal(): one N(0,1) variate, a Python float
        self.uniform = _served(self._gen.random)
        self.normal = _served(normals.standard_normal)

    def permutation(self, n):
        """A uniformly random permutation of range(n)."""
        return self._gen.permutation(n)


def _served(draw):
    """The __next__ of a chain over the lists of draw(_BLOCK), each drawn
    when the one before runs out: a value costs one C-level call."""
    return chain.from_iterable(iter(lambda: draw(_BLOCK).tolist(), None)).__next__
