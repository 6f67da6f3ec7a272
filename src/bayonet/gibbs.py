"""Reference Gibbs sampler for the full posterior.

Conditioned on the other coordinates, each coefficient has the exact
single-coordinate posterior exp(-tau*(c*x^2 - 2*a*x + 2*mu*|x|)), with a
its partial residual, so a sweep is p draws from that posterior.  Each draw
is exact, by one of three routes picked from t = s*(|a| - mu), s =
sqrt(tau/c), the distance past the transition in units of the
conditional's sd times sqrt(2):

- t >= _K, clearly active: accept-reject under the Gaussian
  N(sign(a)*(|a| - mu)/c, 1/(2*tau*c)).  Its exponent replaces 2*mu*|x| by
  the smaller 2*mu*sign(a)*x, so it dominates the conditional; a proposal
  on a's side of zero is always kept, and one on the other side with
  probability exp(-4*tau*mu*|x|), the ratio of the two there.
- t <= -_L, clearly inactive (|a| < mu): accept-reject under the
  asymmetric Laplace exp(-tau*(2*mu*|x| - 2*a*x)), which drops the
  quadratic term and so dominates too.  Its side is x >= 0 with
  probability (mu + a)/(2*mu), its magnitude is Exp(2*tau*(mu -+ a)), and
  the proposal is kept with probability exp(-tau*c*x^2).
- in the band between, where neither envelope keeps enough proposals: the
  closed-form draw, _draw.  It picks the side of zero with exact1d's
  nonnegative-side probability, then draws the normal restricted to that
  side by special's standard lower-truncated draw, so the sampler and the
  closed-form oracle share one formula.

At _K = 0.5 the Gaussian keeps at least Phi(sqrt(2)*_K) ~ 0.76 of its
proposals, and at _L = 1.5 the Laplace keeps at least ~0.85.  This is an
oracle for validating the deterministic approximations, not a production
sampler: no adaptation and no diagnostics.
"""

from dataclasses import dataclass
from math import exp as _exp, log1p as _log1p

import numpy as np

from .data import _check_init
from .exact1d import _half_line_logs, _prob_nonneg
from .special import RngStream, _std_lower_truncated

# the band's edges in t = s*(|a| - mu): the Gaussian envelope at t >= _K, the
# Laplace envelope at t <= -_L
_K = 0.5
_L = 1.5


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
    first uniform picks x >= 0 when it falls below exact1d's nonnegative-side
    probability; that side's normal, mirrored onto x >= 0 for x <= 0, is
    then drawn by special's standard lower-truncated draw.  The sign
    constraint holds exactly: a draw that rounds across zero comes back as a
    zero of the chosen side's sign.
    """
    sign = 1.0 if rng.uniform() < _prob_nonneg(*_half_line_logs(s, a, mu)) else -1.0
    mean = (sign * a - mu) / cjj
    x = mean + sd * _std_lower_truncated(-mean / sd, rng)
    return sign * (x if x > 0.0 else 0.0)


def run_gibbs(problem, init, sweeps, burn_in=None, thin=1, seed=0):
    """Cyclic Gibbs sweeps over all coordinates.

    Each coordinate's partial residual a = w_j - sum_{k != j} C_jk x_k comes
    from the problem's one rule, PenalizedProblem._partial_residuals: a
    fresh O(p) dot of row j of C, or on a wide problem an O(n) one of
    column j of the design against A x, which each sweep recomputes, so
    rounding cannot build up and no p x p C is formed.  The draw takes the
    route the module docstring describes: the two envelopes are written out
    here, reading the stream's normals and uniforms, and the band calls
    _draw.  A zero drawn on either envelope keeps the sign of its side, as
    _draw's do.  The rest of a draw's inputs are precomputed per coordinate
    as Python floats.  burn_in defaults to 10% of sweeps.  Retained count
    is (sweeps - burn_in) // thin, and a chain that would retain nothing
    raises ValueError.
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
    tau = problem.tau
    mu = float(problem.mu)
    rng = RngStream(seed)
    uniform, normal = rng.uniform, rng.normal
    two_mu, two_tau, four_tau_mu = 2.0 * mu, 2.0 * tau, 4.0 * tau * mu
    dots, own, start, move = problem._partial_residuals()
    # Python floats are cheaper to index and combine than numpy scalars: one
    # tuple per coordinate (j, w_j, the rule's dot and own weight, C_jj, s_j,
    # sd_j, tau*C_jj), and x_j read from a list that mirrors the array x
    d = problem._diag
    coords = list(zip(
        range(problem.p),
        problem.w.tolist(),
        dots,
        own,
        d.tolist(),
        np.sqrt(tau / d).tolist(),
        (1.0 / np.sqrt(2.0 * tau * d)).tolist(),
        (tau * d).tolist(),
    ))
    xs = x.tolist()
    keep = np.empty((kept, problem.p))
    k = 0
    for sweep in range(1, sweeps + 1):
        v = start(x)
        for j, wj, dot, oj, cjj, sj, sdj, tcj in coords:
            xj = xs[j]
            a = wj - float(dot(v)) + oj * xj
            excess = abs(a) - mu
            t = sj * excess
            if t >= _K:
                # Gaussian envelope, mirrored so that a's side is y >= 0
                m = excess / cjj
                while True:
                    y = m + sdj * normal()
                    if y >= 0.0 or uniform() < _exp(four_tau_mu * y):
                        break
                new = y if a > 0.0 else -y
            elif t <= -_L:
                # Laplace envelope; -log1p(-U) is +0.0 at U = 0, so a zero
                # magnitude keeps its side's sign
                side = (mu + a) / two_mu
                while True:
                    if uniform() < side:
                        new = -_log1p(-uniform()) / (two_tau * (mu - a))
                    else:
                        new = _log1p(-uniform()) / (two_tau * (mu + a))
                    if uniform() < _exp(-tcj * new * new):
                        break
            else:
                new = _draw(cjj, a, mu, sj, sdj, rng)
            if new != xj:
                x[j] = xs[j] = new
                if move is not None:
                    move(j, new - xj)
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
