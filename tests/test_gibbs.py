"""Gibbs sampler tests: conditional draws, full chains, bookkeeping."""

import hashlib
import math

import numpy as np
import pytest
from scipy import special, stats

import bayonet as bn
from bayonet import gibbs
from bayonet.gibbs import _T
import helpers


def draws_1d(c, a, mu, tau, n, seed=11):
    """n draws from the single-coordinate conditional run_gibbs samples: with
    p = 1 the partial residual is a, so a chain's draws are i.i.d."""
    prob = bn.PenalizedProblem(c=np.array([[c]]), w=np.array([a]), mu=mu, lam=0.0, tau=tau)
    return bn.run_gibbs(prob, np.zeros(1), n, burn_in=0, seed=seed).samples[:, 0]


def test_conditional_symmetric_at_zero_drift():
    # a = 0 makes the two sides exact mirror images, so the nonnegative
    # fraction is a Binomial(n, 1/2) count
    xs = draws_1d(1.0, 0.0, 0.25, 50.0, 100_000)
    frac = np.mean(xs >= 0.0)
    se = 0.5 / math.sqrt(xs.size)
    assert abs(frac - 0.5) <= 3.0 * se


def test_conditional_mean_matches_exact_formula():
    xs = draws_1d(1.0, 0.5, 0.25, 50.0, 100_000)
    prob = bn.OneDimProblem(c=1.0, w=0.5, mu=0.25, tau=50.0)
    target = bn.expectation_exact(prob)
    se = xs.std(ddof=1) / math.sqrt(xs.size)
    assert abs(xs.mean() - target) <= 3.0 * se


def test_conditional_sign_split_matches_exact_formula():
    xs = draws_1d(1.0, 0.5, 0.25, 50.0, 100_000)
    prob = bn.OneDimProblem(c=1.0, w=0.5, mu=0.25, tau=50.0)
    alpha = bn.prob_nonnegative(prob)
    frac = np.mean(xs >= 0.0)
    se = math.sqrt(alpha * (1.0 - alpha) / xs.size)
    assert abs(frac - alpha) <= 3.0 * se


def small_problem(seed=3, n=80, p=3, mu=0.2, lam=0.05, tau=40.0):
    std = helpers.random_standardized(seed, n, p, beta=np.array([0.8, -0.4, 0.0]))
    return bn.build_problem(std, lam=lam, mu=mu, tau=tau)


def test_chain_is_seed_deterministic():
    prob = small_problem()
    init = np.zeros(prob.p)
    a = bn.run_gibbs(prob, init, sweeps=300, seed=42)
    b = bn.run_gibbs(prob, init, sweeps=300, seed=42)
    assert np.array_equal(a.samples, b.samples)
    c = bn.run_gibbs(prob, init, sweeps=300, seed=43)
    assert not np.array_equal(a.samples, c.samples)


def test_chain_matches_stored_reference():
    # the sweep loop's bookkeeping (Python floats, fresh-row partial
    # residuals, block-drawn uniforms and normals, thinning) must leave the
    # chain bit for bit as recorded
    prob = bn.PenalizedProblem(
        c=np.array([[0.6, 0.2, -0.1], [0.2, 0.5, 0.15], [-0.1, 0.15, 0.7]]),
        w=np.array([0.3, -0.02, 0.1]),
        mu=0.05,
        lam=0.0,
        tau=40.0,
    )
    ch = bn.run_gibbs(prob, np.zeros(3), 300, burn_in=50, thin=2, seed=11)
    assert ch.samples.shape == (125, 3)
    assert ch.samples[-1].tolist() == [
        0.5052973014761255, -0.37100240651487437, 0.34712908799709585
    ]
    assert hashlib.sha256(ch.samples.tobytes()).hexdigest() == (
        "dc9360aa2dc4b802c1eeaf806ce48fb194564b9430ae4615ccf66656d0c97f49"
    )
    # the row recorded with the incrementally updated residual: the same
    # uniforms and normals drive the chain, so only rounding separates the two
    assert ch.samples[-1] == pytest.approx(
        [0.5052973014761251, -0.3710024065148746, 0.34712908799709585],
        rel=0.0, abs=1e-12,
    )


def test_wide_chain_matches_stored_reference(monkeypatch):
    # the wide route (p > n, residuals from the design's columns) as
    # recorded: every draw moves its coordinate, so move keeps A x current
    # 16,000 times, and both envelopes are taken, the Laplace one on every
    # draw that reads no normal.  The pin holds for one numpy version
    beta = [1.0, -0.8, 0.5] + [0.0] * 77
    std = helpers.random_standardized(64, 30, 80, beta=beta, noise=0.5)
    base = bn.build_problem(std, 0.1, 1.0, 50.0)
    prob = base.with_mu(0.3 * bn.mu_max(base.w))
    assert prob.low_rank_factor is not None
    streams, moves = [], []
    rule = bn.PenalizedProblem._partial_residuals

    def counted_rule(self):
        dots, own, start, move = rule(self)

        def counted_move(j, dx):
            moves.append(j)
            move(j, dx)

        return dots, own, start, counted_move

    def stream(seed):
        streams.append(CountingStream(seed))
        return streams[-1]

    monkeypatch.setattr(bn.PenalizedProblem, "_partial_residuals", counted_rule)
    monkeypatch.setattr(gibbs, "RngStream", stream)
    ch = bn.run_gibbs(prob, np.zeros(80), 200, burn_in=20, thin=3, seed=13)
    [rng] = streams
    assert ch.samples.shape == (60, 80)
    assert len(moves) == 200 * 80
    assert 0 < rng.normals < 200 * 80
    assert ch.samples[-1, :3].tolist() == [
        0.3255628185192381, -0.2611676159240578, 0.020150360368234182
    ]
    assert hashlib.sha256(ch.samples.tobytes()).hexdigest() == (
        "d111e6929b06f0c893ccb97c0666899f41e3f7b862deb21fab35c537b0873f2c"
    )


@pytest.mark.parametrize("tau", [1e308, 1.7e308])
def test_chain_at_an_overflowing_tau_raises_numerical_error(tau):
    # tau/C_jj overflows, so s = inf and t = inf*0 is NaN at a = mu, where
    # no proposal is ever kept: the chain refuses before its first sweep,
    # and with no overflow warning
    prob = bn.PenalizedProblem(
        c=np.array([[0.5]]), w=np.array([0.05]), mu=0.05, lam=0.0, tau=tau
    )
    with pytest.raises(bn.NumericalError, match="overflows"):
        bn.run_gibbs(prob, np.zeros(1), sweeps=20)


def test_chain_bookkeeping_fields():
    prob = small_problem()
    ch = bn.run_gibbs(prob, np.zeros(prob.p), sweeps=250, burn_in=50, thin=4, seed=7)
    assert ch.total_sweeps == 250
    assert ch.burn_in == 50
    assert ch.thin == 4
    assert ch.seed == 7
    assert ch.samples.shape == ((250 - 50) // 4, prob.p)


def test_chain_default_burn_in_is_tenth_of_sweeps():
    prob = small_problem()
    ch = bn.run_gibbs(prob, np.zeros(prob.p), sweeps=200, seed=1)
    assert ch.burn_in == 20
    assert ch.samples.shape[0] == 180


def test_chain_samples_are_read_only():
    prob = small_problem()
    ch = bn.run_gibbs(prob, np.zeros(prob.p), sweeps=120, seed=5)
    with pytest.raises(ValueError):
        ch.samples[0, 0] = 9.9


def test_chain_validates_arguments():
    prob = small_problem()
    with pytest.raises(ValueError):
        bn.run_gibbs(prob, np.zeros(prob.p), sweeps=100, burn_in=100, seed=0)
    with pytest.raises(ValueError):
        bn.run_gibbs(prob, np.zeros(prob.p), sweeps=100, burn_in=-1, seed=0)
    with pytest.raises(ValueError):
        bn.run_gibbs(prob, np.zeros(prob.p), sweeps=100, thin=0, seed=0)
    # (sweeps - burn_in) // thin retained samples must be at least one
    for sweeps, burn_in, thin in [(10, None, 100), (100, 99, 2)]:
        with pytest.raises(ValueError, match="keeps no samples"):
            bn.run_gibbs(prob, np.zeros(prob.p), sweeps, burn_in=burn_in, thin=thin)
    with pytest.raises(ValueError):
        bn.run_gibbs(prob, np.zeros(prob.p + 1), sweeps=100, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_chain_rejects_non_finite_init(bad):
    # a non-finite start makes a partial residual NaN, so t is NaN and the
    # draw falls to the Laplace envelope, whose acceptance test a NaN
    # proposal never passes: the loop would hang there
    std = helpers.random_standardized(58, 60, 4)
    prob = bn.build_problem(std, 0.1, 0.1, 50.0)
    with pytest.raises(ValueError, match="init must be finite"):
        bn.run_gibbs(prob, [bad, 0.0, 0.0, 0.0], sweeps=20)


def test_huge_penalty_shrinks_every_sample():
    std = helpers.random_standardized(21, 60, 4, beta=np.array([1.0, -1.0, 0.5, 0.0]))
    cap = bn.mu_max(bn.build_problem(std, lam=0.05, mu=1.0, tau=1.0).w)
    prob = bn.build_problem(std, lam=0.05, mu=1e3 * cap, tau=30.0)
    ch = bn.run_gibbs(prob, np.zeros(prob.p), sweeps=2_000, seed=9)
    norms = np.max(np.abs(ch.samples), axis=1)
    # prior scale is 1/(2*tau*mu) per coordinate; stay within a few of those
    assert np.median(norms) < 5.0 / (2.0 * prob.tau * prob.mu)
    assert norms.max() < 40.0 / (2.0 * prob.tau * prob.mu)


def test_two_dim_chain_matches_quadrature_moments():
    cmat = np.array([[0.6, 0.25], [0.25, 0.6]])
    w = np.array([0.35, -0.2])
    mu, tau = 0.15, 60.0
    prob = bn.PenalizedProblem(c=cmat, w=w, mu=mu, lam=0.0, tau=tau)
    ch = bn.run_gibbs(prob, np.zeros(2), sweeps=44_000, burn_in=4_000, seed=31)
    mean_ref, cov_ref = helpers.grid_moments_2d(cmat, w, mu, tau)
    for j in range(2):
        se = helpers.batch_se(ch.samples[:, j])
        assert abs(ch.samples[:, j].mean() - mean_ref[j]) <= 3.0 * se
        # variance needs its own error bar; batch means of centered squares
        sq = (ch.samples[:, j] - mean_ref[j]) ** 2
        assert abs(sq.mean() - cov_ref[j, j]) <= 3.0 * helpers.batch_se(sq)
    prod = (ch.samples[:, 0] - mean_ref[0]) * (ch.samples[:, 1] - mean_ref[1])
    assert abs(prod.mean() - cov_ref[0, 1]) <= 3.0 * helpers.batch_se(prod)


def test_one_dim_chain_reproduces_exact_density():
    c, w, mu, tau = 0.7, 0.3, 0.2, 45.0
    prob = bn.PenalizedProblem(
        c=np.array([[c]]), w=np.array([w]), mu=mu, lam=0.0, tau=tau
    )
    ch = bn.run_gibbs(prob, np.zeros(1), sweeps=11_000, burn_in=1_000, seed=17)
    assert ch.samples.shape[0] == 10_000
    one = bn.OneDimProblem(c=c, w=w, mu=mu, tau=tau)
    sd = 1.0 / math.sqrt(2.0 * tau * c)
    grid = np.linspace(w / c - 10 * sd, w / c + 10 * sd, 4001)
    dens = bn.density_exact(one, grid)
    assert helpers.ks_distance(ch.samples[:, 0], grid, dens) < 0.02


def test_chain_agrees_with_deterministic_marginals(p5_suite):
    # module-pair check: empirical CDF per coordinate vs the saddle-point
    # marginal curve, moderate sample size here (the acceptance run is longer)
    prob = p5_suite["problem"]
    ch = bn.run_gibbs(prob, p5_suite["ml"].x_hat, sweeps=12_000, burn_in=2_000, seed=555)
    for j in range(prob.p):
        curve = bn.marginal_sp(prob, p5_suite["saddle"], j)
        d = helpers.ks_distance(ch.samples[:, j], curve.grid, curve.density)
        assert d < 0.05


def test_huge_samples_at_tiny_tau_finite_and_deterministic():
    # at tau = 1e-12 the samples reach ~1e6 within 100 sweeps; an
    # incrementally updated residual drifted there, but each partial residual
    # is now computed afresh, so the chain stays finite and reproducible
    std = helpers.random_standardized(0, 60, 5)
    prob = bn.build_problem(std, 0.1, 0.05, 1e-12)
    a = bn.run_gibbs(prob, np.zeros(5), sweeps=300)
    b = bn.run_gibbs(prob, np.zeros(5), sweeps=300)
    assert np.isfinite(a.samples).all()
    assert np.abs(a.samples).max() > 1e5
    assert a.samples.tobytes() == b.samples.tobytes()


class CountingStream:
    """An RngStream's uniforms and normals, counted as they are read."""

    def __init__(self, seed):
        self._rng = bn.RngStream(seed)
        self.count = self.normals = 0

    def uniform(self):
        self.count += 1
        return self._rng.uniform()

    def normal(self):
        self.normals += 1
        return self._rng.normal()


def _case_101():
    prob, sad = helpers.build_marginal_case(101)
    return prob, sad.x_tau, 1500


def _case_tiny_tau():
    std = helpers.random_standardized(0, 60, 5)
    return bn.build_problem(std, 0.1, 0.05, 1e-12), np.zeros(5), 300


def _case_p1():
    prob = bn.PenalizedProblem(
        c=np.array([[0.7]]), w=np.array([0.3]), mu=0.2, lam=0.0, tau=45.0
    )
    return prob, np.zeros(1), 3000


@pytest.mark.parametrize("case", [_case_101, _case_tiny_tau, _case_p1],
                         ids=["marginal-case-101", "tau-1e-12", "p-1"])
@pytest.mark.parametrize("burn_in, thin", [(None, 1), (7, 3)])
def test_chain_matches_reference_loop(case, burn_in, thin):
    # run_gibbs's per-coordinate tuples and list mirror of x leave every
    # chain byte for byte that of the plain loop over the reference kernels
    prob, init, sweeps = case()
    ch = bn.run_gibbs(prob, init, sweeps, burn_in=burn_in, thin=thin, seed=5)
    ref = helpers.gibbs_reference(prob, init, sweeps, burn_in=burn_in, thin=thin, seed=5)
    assert ch.samples.shape == ref.shape
    assert ch.samples.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# the two envelopes of run_gibbs's draw


def _route_case(t, m0, tau, sign, c=0.7):
    """The p = 1 problem whose conditional sits at t = s*(|a| - mu), with mu
    = m0/s: in units of 1/(s*c) the conditional depends on (t, m0) alone,
    and tau only moves it across floating-point scales."""
    s = math.sqrt(tau / c)
    mu, a = m0 / s, sign * (m0 + t) / s
    prob = bn.PenalizedProblem(c=np.array([[c]]), w=np.array([a]), mu=mu, lam=0.0, tau=tau)
    return prob, bn.OneDimProblem(c=c, w=a, mu=mu, tau=tau)


# t just past and just short of the switch point, far and then a little
# inside each envelope; m0 = s*mu sets how much the envelopes' dropped terms
# weigh
ROUTE_TS = [_T + 0.1, _T - 0.1, 4.0, 0.0, -5.0, 0.6, 0.4, -1.4, -1.6]
ROUTE_TAUS = [1e-2, 1.0, 1e4, 1e10]


@pytest.mark.parametrize("tau", ROUTE_TAUS)
@pytest.mark.parametrize("t", ROUTE_TS)
def test_route_draws_follow_the_exact_conditional(t, tau):
    # with p = 1 the partial residual is w, so a chain's draws are i.i.d.
    # from the conditional
    i = ROUTE_TS.index(t) * len(ROUTE_TAUS) + ROUTE_TAUS.index(tau)
    m0 = abs(t) + (0.3 if i % 2 else 3.0)
    prob, one = _route_case(t, m0, tau, sign=1.0 if i % 3 else -1.0)
    n = 20_000
    xs = bn.run_gibbs(prob, np.zeros(1), n, burn_in=0, seed=100 + i).samples[:, 0]
    lo, hi = xs.min(), xs.max()
    pad = 0.1 * (hi - lo)
    grid = np.union1d(np.linspace(lo - pad, hi + pad, 40_001), [0.0])
    assert helpers.ks_distance(xs, grid, bn.density_exact(one, grid)) < stats.kstwo.ppf(0.99, n)
    # the side by the sign bit, so a zero counts on the side it was drawn on
    alpha = bn.prob_nonnegative(one)
    frac = np.mean(~np.signbit(xs))
    assert abs(frac - alpha) <= 4.0 * math.sqrt(alpha * (1.0 - alpha) / n)
    assert abs(xs.mean() - bn.expectation_exact(one)) <= 4.0 * xs.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("t, m0", [(_T + 1e-9, 20.0), (_T - 1e-9, -(_T - 1e-9))],
                         ids=["gaussian", "laplace"])
def test_envelopes_keep_enough_proposals_at_their_switch_points(monkeypatch, t, m0):
    # t sits just past the switch point on each side, so rounding cannot
    # move it to the other envelope.  Each Gaussian proposal reads one
    # normal, each Laplace proposal three uniforms (side, magnitude,
    # acceptance) and no normal.  m0 = 20 makes nearly every Gaussian
    # proposal on the wrong side a rejection, and m0 = -t puts a at 0, the
    # Laplace envelope's worst case, so these are the least accepting
    # conditionals each envelope meets.  Each keeps at least its worst-case
    # share of proposals, Phi(sqrt(2)*t) and |t|*sqrt(pi)*erfcx(|t|): on
    # average at most the inverse of that share are drawn per sample
    streams = []

    def stream(seed):
        streams.append(CountingStream(seed))
        return streams[-1]

    monkeypatch.setattr(gibbs, "RngStream", stream)
    prob, _ = _route_case(t, m0, 50.0, sign=1.0)
    n = 20_000
    bn.run_gibbs(prob, np.zeros(1), n, burn_in=0, seed=4)
    [rng] = streams
    if t >= _T:
        bound, proposals = special.ndtr(math.sqrt(2.0) * t), rng.normals
    else:
        bound, proposals = -t * math.sqrt(math.pi) * special.erfcx(-t), rng.count / 3
        assert rng.normals == 0
    # the number of proposals a draw is geometric with success probability
    # at least bound
    se = math.sqrt((1.0 - bound) / n) / bound
    assert 1.0 <= proposals / n <= 1.0 / bound + 4.0 * se


def test_chain_taking_both_routes_matches_quadrature_moments():
    # each coordinate's conditional crosses the switch point as the strongly
    # correlated other coordinate moves
    cmat = np.array([[1.0, 0.9], [0.9, 1.0]])
    w = np.array([0.26, 0.28])
    mu, tau = 0.25, 300.0
    prob = bn.PenalizedProblem(c=cmat, w=w, mu=mu, lam=0.0, tau=tau)
    ch = bn.run_gibbs(prob, np.zeros(2), sweeps=44_000, burn_in=0, seed=12)
    xs = ch.samples
    # each draw's partial residual: coordinate 0 sees coordinate 1 of the
    # sweep before, coordinate 1 sees coordinate 0 of its own sweep
    a = np.column_stack([
        w[0] - cmat[0, 1] * np.concatenate([[0.0], xs[:-1, 1]]),
        w[1] - cmat[1, 0] * xs[:, 0],
    ])
    t = np.sqrt(tau / np.diagonal(cmat)) * (np.abs(a) - mu)
    gaussian = np.mean(t >= _T, axis=0)
    assert (gaussian > 0.1).all() and (gaussian < 0.9).all(), gaussian
    kept = xs[4_000:]
    mean_ref, cov_ref = helpers.grid_moments_2d(cmat, w, mu, tau)
    for j in range(2):
        assert abs(kept[:, j].mean() - mean_ref[j]) <= 4.0 * helpers.batch_se(kept[:, j])
        sq = (kept[:, j] - mean_ref[j]) ** 2
        assert abs(sq.mean() - cov_ref[j, j]) <= 4.0 * helpers.batch_se(sq)
