"""Reference Gibbs sampler for the full posterior.

Conditioned on the other coordinates, each coefficient has the exact
single-coordinate posterior with linear term equal to its partial residual,
so a sweep is p draws from that posterior: pick the side of zero with the
exact nonnegative-side probability, then draw the normal restricted to that
side.  The draw is written out flat on Python floats, since a Python call
costs more than its arithmetic here.  It is exact1d's half-line logs and
nonnegative-side probability followed by special's standard lower-truncated
draw, and the tests hold it to that composition bit for bit, so the sampler
and the closed-form oracle still share one formula.  This is an oracle for
validating the deterministic approximations, not a production sampler: no
adaptation and no diagnostics.
"""

from dataclasses import dataclass
from math import erfc as _merfc, exp as _exp, log as _log, sqrt as _sqrt

import numpy as np
from scipy.special import erfc as _erfc, erfcx as _erfcx, ndtri as _ndtri

from .data import _check_init
from .special import SQRT2, RngStream


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
    first uniform picks x >= 0 when it falls below the exact nonnegative-side
    probability; that side's normal, mirrored onto x >= 0 for x <= 0, is
    then drawn by one standard lower-truncated draw.  The sign constraint
    holds exactly: a draw that rounds across zero comes back as a zero of
    the chosen side's sign.

    The body is exact1d._prob_nonneg(*exact1d._half_line_logs(s, a, mu))
    and special._std_lower_truncated inlined on Python floats, with the same
    branches, the same operations in the same order and the same uniforms,
    so its draws are theirs bit for bit.
    """
    u = rng.uniform()
    # log_erfcx at s*(mu - a) and s*(mu + a): the x >= 0 and x <= 0
    # half-line logs, each on its three ranges
    t = s * (mu - a)
    if t > 5.0:
        lp = _log(_erfcx(t))
    elif t >= -25.0:
        lp = t * t + _log(_merfc(t))
    else:
        lp = t * t + _log(2.0 - float(_erfc(-t)))
    t = s * (mu + a)
    if t > 5.0:
        lm = _log(_erfcx(t))
    elif t >= -25.0:
        lm = t * t + _log(_merfc(t))
    else:
        lm = t * t + _log(2.0 - float(_erfc(-t)))
    # the side: u below expit(lp - lm), each branch exact in its own tail
    d = lp - lm
    if d >= 0.0:
        sign = 1.0 if u < 1.0 / (1.0 + _exp(-d)) else -1.0
    else:
        e = _exp(d)
        sign = 1.0 if u < e / (1.0 + e) else -1.0
    mean = (sign * a - mu) / cjj
    # Z ~ N(0, 1) given Z >= t: the inverse CDF on the upper-tail mass up
    # to t = 8, shifted-exponential rejection past it
    t = -mean / sd
    if t <= 8.0:
        z = -float(_ndtri((1.0 - rng.uniform()) * (0.5 * float(_erfc(t / SQRT2)))))
    else:
        alpha = 0.5 * (t + _sqrt(t * t + 4.0))
        while True:
            z = t - _log(1.0 - rng.uniform()) / alpha
            d = z - alpha
            if rng.uniform() <= _exp(-0.5 * d * d):
                break
    x = mean + sd * z
    return sign * (x if x > 0.0 else 0.0)


def run_gibbs(problem, init, sweeps, burn_in=None, thin=1, seed=0):
    """Cyclic Gibbs sweeps over all coordinates.

    Each coordinate's partial residual w_j - sum_{k != j} C_jk x_k is computed
    afresh from row j of C and the current x (one O(p) dot), so no running
    residual is carried from draw to draw and rounding cannot accumulate
    however large the samples grow.  The rest of a draw's inputs are
    precomputed per coordinate, and each draw is one _draw call on Python
    floats.  burn_in defaults to 10% of sweeps.  Retained count is (sweeps
    - burn_in) // thin, and a chain that would retain nothing raises
    ValueError.
    """
    if burn_in is None:
        burn_in = sweeps // 10
    if burn_in < 0 or sweeps <= burn_in:
        raise ValueError("need sweeps > burn_in >= 0")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    kept = (sweeps - burn_in) // thin
    if kept < 1:
        raise ValueError("the chain keeps no samples: need sweeps - burn_in >= thin")
    x = _check_init(problem, init)  # a copy: the loop writes to it
    c, tau = problem.c, problem.tau
    mu = float(problem.mu)
    rng = RngStream(seed)
    # Python floats are cheaper to index and combine than numpy scalars: one
    # tuple per coordinate (w_j, the bound dot method of a contiguous copy of
    # row j, C_jj, s_j, sd_j), and x_j read from a list that mirrors x; x
    # stays an array, the operand of each row's dot
    d = np.diagonal(c)
    coords = list(zip(
        range(problem.p),
        problem.w.tolist(),
        [np.array(row).dot for row in c],
        d.tolist(),
        np.sqrt(tau / d).tolist(),
        (1.0 / np.sqrt(2.0 * tau * d)).tolist(),
    ))
    xs = x.tolist()
    keep = np.empty((kept, problem.p))
    k = 0
    for sweep in range(1, sweeps + 1):
        for j, wj, dot, cjj, sj, sdj in coords:
            xj = xs[j]
            new = _draw(cjj, wj - float(dot(x)) + cjj * xj, mu, sj, sdj, rng)
            if new != xj:
                x[j] = xs[j] = new
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
