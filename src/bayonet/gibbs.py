"""Reference Gibbs sampler for the full posterior.

Conditioned on the other coordinates, each coefficient has the exact
single-coordinate posterior with linear term equal to its partial residual,
so a sweep is p draws from that posterior: pick the side of zero with the
exact nonnegative-side probability, then draw the normal restricted to that
side.  The side weight comes from exact1d's kernels, so the sampler and the
closed-form oracle share one formula.  This is an oracle for validating the
deterministic approximations, not a production sampler: no adaptation and no
diagnostics.
"""

from dataclasses import dataclass

import numpy as np

from .data import _check_init
from .exact1d import _half_line_logs, _prob_nonneg
from .special import RngStream, _std_lower_truncated


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
    """
    sign = 1.0 if rng.uniform() < _prob_nonneg(*_half_line_logs(s, a, mu)) else -1.0
    mean = (sign * a - mu) / cjj
    x = mean + sd * _std_lower_truncated(-mean / sd, rng)
    return sign * (x if x > 0.0 else 0.0)


def run_gibbs(problem, init, sweeps, burn_in=None, thin=1, seed=0):
    """Cyclic Gibbs sweeps over all coordinates.

    Each coordinate's partial residual w_j - sum_{k != j} C_jk x_k is computed
    afresh from row j of C and the current x (one O(p) dot), so no running
    residual is carried from draw to draw and rounding cannot accumulate
    however large the samples grow.  burn_in defaults to 10% of sweeps.
    Retained count is (sweeps - burn_in) // thin, and a chain that would
    retain nothing raises ValueError.
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
    c, mu, tau = problem.c, problem.mu, problem.tau
    p = problem.p
    rng = RngStream(seed)
    # the per-coordinate loop runs on Python floats, which are cheaper to
    # index and combine than numpy scalars; x stays an array, the operand of
    # each row's bound dot method (rows copied contiguous)
    d = np.diagonal(c)
    diag = d.tolist()
    w = problem.w.tolist()
    row_dots = [np.array(c[j]).dot for j in range(p)]
    svals = np.sqrt(tau / d).tolist()
    sds = (1.0 / np.sqrt(2.0 * tau * d)).tolist()
    keep = np.empty((kept, p))
    k = 0
    for sweep in range(1, sweeps + 1):
        for j in range(p):
            xj = x.item(j)
            aj = w[j] - float(row_dots[j](x)) + diag[j] * xj
            new = _draw(diag[j], aj, mu, svals[j], sds[j], rng)
            if new != xj:
                x[j] = new
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
