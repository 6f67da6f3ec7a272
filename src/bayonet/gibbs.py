"""Reference Gibbs sampler for the full posterior.

Conditioned on the other coordinates, each coefficient has the exact
single-coordinate posterior exp(-tau*(c*x^2 - 2*a*x + 2*mu*|x|)), with a
its partial residual, so a sweep is p draws from that posterior.  Each draw
is exact, by accept-reject under one of two envelopes picked from t =
s*(|a| - mu), s = sqrt(tau/c), the distance past the transition in units of
the conditional's sd times sqrt(2):

- t >= _T: the Gaussian N(sign(a)*(|a| - mu)/c, 1/(2*tau*c)).  Its
  exponent replaces 2*mu*|x| by the smaller 2*mu*sign(a)*x, so it
  dominates the conditional; a proposal on a's side of zero is always
  kept, and one on the other side with probability exp(-4*tau*mu*|x|),
  the ratio of the two there.
- t < _T, so |a| < mu: the asymmetric Laplace exp(-tau*(2*mu*|x| -
  2*a*x)), which drops the quadratic term and so dominates too.  Its side
  is x >= 0 with probability (mu + a)/(2*mu), its magnitude is
  Exp(2*tau*(mu -+ a)), and the proposal is kept with probability
  exp(-tau*c*x^2).

Each envelope's acceptance depends on the conditional through t and m0 =
s*mu alone.  The Gaussian keeps more than Phi(sqrt(2)*t) of its proposals,
its limit as m0 grows; the Laplace keeps at least |t|*sqrt(pi)*erfcx(|t|),
reached at a = 0.  The first bound rises with t and the second falls, and
they meet at _T, where each is 0.355, so no conditional takes more than
2.82 proposals a draw on average.  The sampler shares no code with the
closed-form posterior of exact1d, so the two are independent oracles for
validating the deterministic approximations.  It is not a production
sampler: no adaptation and no diagnostics.
"""

from dataclasses import dataclass
from math import exp as _exp, log1p as _log1p

import numpy as np

from .data import _check_init
from .errors import NumericalError
from .special import RngStream

# where the envelopes' worst-case acceptances in t = s*(|a| - mu) cross: the
# Gaussian at t >= _T, the Laplace below
_T = -0.2632


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


def run_gibbs(problem, init, sweeps, burn_in=None, thin=1, seed=0):
    """Cyclic Gibbs sweeps over all coordinates.

    Each coordinate's partial residual a = w_j - sum_{k != j} C_jk x_k comes
    from the problem's one rule, PenalizedProblem._partial_residuals: a
    fresh O(p) dot of row j of C, or on a wide problem an O(n) one of
    column j of the design against A x, which each sweep recomputes, so
    rounding cannot build up and no p x p C is formed.  The draw is by the
    envelope the module docstring describes, reading the stream's normals
    and uniforms; a zero drawn on either keeps the sign of its side.  The
    rest of a draw's inputs are precomputed per coordinate as Python
    floats, and a tau at which one of them overflows (s_j, sd_j or
    tau*C_jj not finite) raises NumericalError before the first sweep:
    with s_j infinite, t is NaN at a = mu, and no proposal is ever kept.
    burn_in defaults to 10% of sweeps.  Retained count is (sweeps -
    burn_in) // thin, and a chain that would retain nothing raises
    ValueError.

    A draw costs under a microsecond, so call overhead counts: the
    stream's uniform and normal are C-level methods, the switch point, exp,
    log1p, abs and float are bound to local names, and each draw is stored
    into x through a memoryview of it, at about half a numpy setitem's
    cost, with the list mirror written alongside.  The per-draw dot stays
    the row's own bound ndarray.dot: at p = 10 np.vdot, np.inner, @ and a
    Python sum of products are all slower, and the last, like blocked
    residual updates, rounds differently and so would change the chain.
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
    with np.errstate(over="ignore", divide="ignore"):
        scales = np.sqrt(tau / d), 1.0 / np.sqrt(2.0 * tau * d), tau * d
    if not all(np.isfinite(v).all() for v in scales):
        raise NumericalError(f"tau={float(tau)!r}: a conditional's scale overflows")
    coords = list(zip(
        range(problem.p),
        problem.w.tolist(),
        dots,
        own,
        d.tolist(),
        *(v.tolist() for v in scales),
    ))
    xs = x.tolist()
    store = memoryview(x)
    keep = np.empty((kept, problem.p))
    k = 0
    t_switch, exp, log1p, absolute, as_float = _T, _exp, _log1p, abs, float
    for sweep in range(1, sweeps + 1):
        v = start(x)
        for j, wj, dot, oj, cjj, sj, sdj, tcj in coords:
            xj = xs[j]
            a = wj - as_float(dot(v)) + oj * xj
            excess = absolute(a) - mu
            t = sj * excess
            if t >= t_switch:
                # Gaussian envelope, mirrored so that a's side is y >= 0
                m = excess / cjj
                while True:
                    y = m + sdj * normal()
                    if y >= 0.0 or uniform() < exp(four_tau_mu * y):
                        break
                new = y if a > 0.0 else -y
            else:
                # Laplace envelope; -log1p(-U) is +0.0 at U = 0, so a zero
                # magnitude keeps its side's sign
                side = (mu + a) / two_mu
                while True:
                    if uniform() < side:
                        new = -log1p(-uniform()) / (two_tau * (mu - a))
                    else:
                        new = log1p(-uniform()) / (two_tau * (mu + a))
                    if uniform() < exp(-tcj * new * new):
                        break
            if new != xj:
                store[j] = xs[j] = new
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
