"""Reference Gibbs sampler for the full posterior.

Conditioned on the other coordinates, each coefficient has the exact
single-coordinate posterior with linear term equal to its partial residual,
so a sweep is p draws from that posterior: pick the side of zero with the
exact nonnegative-side probability, then draw the normal restricted to that
side.  The side weight comes from exact1d's kernels, so the sampler and the
closed-form oracle share one formula.  This is an oracle for validating the
deterministic approximations, not a production sampler: no adaptation, no
diagnostics beyond an internal bookkeeping guard.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
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
