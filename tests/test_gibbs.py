"""Gibbs sampler tests: conditional draws, full chains, bookkeeping."""

import math

import numpy as np
import pytest

import bayonet as bn
from bayonet.gibbs import _draw
import helpers


def draws_1d(c, a, mu, tau, n, seed=11):
    """n draws from the single-coordinate conditional run_gibbs samples."""
    rng = bn.RngStream(seed)
    s = math.sqrt(tau / c)
    sd = 1.0 / math.sqrt(2.0 * tau * c)
    return np.array([_draw(c, a, mu, s, sd, rng) for _ in range(n)])


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


@pytest.mark.parametrize("c, a, mu, tau", [
    (1.0, 0.5, 0.25, 50.0),
    (0.7, -0.2, 0.25, 50.0),
    (1.0, 2.8, 0.1, 100.0),   # log-weight difference +734: weight exactly 1
    (1.0, -2.8, 0.1, 100.0),  # -734: weight 2.4e-319, which a clamp at 700 zeroed
    (1.0, -3.0, 0.1, 100.0),  # -846: weight underflows to 0
])
def test_draw_side_follows_prob_nonnegative(c, a, mu, tau):
    # the side of the draw (the sign bit, so a zero still tells) is x >= 0
    # exactly when the first uniform is below prob_nonnegative
    alpha = bn.prob_nonnegative(bn.OneDimProblem(c=c, w=a, mu=mu, tau=tau))
    s = math.sqrt(tau / c)
    sd = 1.0 / math.sqrt(2.0 * tau * c)
    rng = bn.RngStream(3)

    def side(first):
        x = _draw(c, a, mu, s, sd, helpers.FirstUniform(first, rng))
        return math.copysign(1.0, x)

    if alpha > 0.0:
        assert side(math.nextafter(alpha, 0.0)) == 1.0
        assert side(0.0) == 1.0
    if alpha < 1.0:
        assert side(alpha) == -1.0
        assert side(math.nextafter(1.0, 0.0)) == -1.0


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
    with pytest.raises(ValueError):
        bn.run_gibbs(prob, np.zeros(prob.p + 1), sweeps=100, seed=0)


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


def test_drift_guard_raises_numerical_error():
    # at tau = 1e-12 the samples reach ~1e6 within 100 sweeps, and rounding
    # in the incremental residual update alone exceeds the guard's absolute
    # 1e-10 bound
    std = helpers.random_standardized(0, 60, 5)
    prob = bn.build_problem(std, 0.1, 0.05, 1e-12)
    with pytest.raises(bn.NumericalError, match="drift guard"):
        bn.run_gibbs(prob, np.zeros(5), sweeps=300)
