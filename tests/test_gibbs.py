"""Gibbs sampler tests: conditional draws, full chains, bookkeeping."""

import hashlib
import math

import numpy as np
import pytest

import bayonet as bn
from bayonet.exact1d import _half_line_logs, _prob_nonneg
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


def test_chain_matches_stored_reference():
    # the sweep loop's bookkeeping (Python floats, fresh-row partial
    # residuals, block-drawn uniforms, thinning) must leave the chain bit for
    # bit as recorded
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
        0.5439562056225257, -0.03574173970551667, 0.20936383497259928
    ]
    assert hashlib.sha256(ch.samples.tobytes()).hexdigest() == (
        "923a70c9be7463ac1abf48196906f9f28e110d1277f4d900863b81e440aba263"
    )
    # the row recorded with the incrementally updated residual: the same
    # uniforms drive the chain, so only rounding separates the two
    assert ch.samples[-1] == pytest.approx(
        [0.5439562056225256, -0.035741739705516695, 0.20936383497259917],
        rel=0.0, abs=1e-12,
    )


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
    # a non-finite start used to reach the truncated-normal rejection loop,
    # which can never accept with a NaN bound, and hang there
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
    """An RngStream's uniforms, counted as they are read."""

    def __init__(self, seed):
        self._rng = bn.RngStream(seed)
        self.count = 0

    def uniform(self):
        self.count += 1
        return self._rng.uniform()


def _erfcx_range(t):
    # the three ranges of special.log_erfcx
    return "above 5" if t > 5.0 else "[-25, 5]" if t >= -25.0 else "below -25"


# c, a, mu, tau: between them the two half-line logs reach all three
# log_erfcx ranges, lp - lm takes both signs, and the side's lower bound
# reaches both truncated-normal routes
DRAW_CASES = [
    (1.0, 0.0, 5.0, 1.0),       # s*(mu -+ a) = 5.0 on both half-lines
    (1.0, 26.0, 1.0, 1.0),      # -25.0 on x >= 0, 27 on x <= 0
    (1.0, 40.0, 1.0, 1.0),      # -39 on x >= 0
    (1.0, -40.0, 1.0, 1.0),     # -39 on x <= 0
    (1.0, -26.0, 0.5, 1.0),     # -25.5 on x <= 0: side weight 4e-285
    (1.0, 0.0, 0.25, 50.0),     # lp - lm = 0 exactly
    (1.0, 0.5, 0.25, 50.0),
    (0.7, -0.2, 0.25, 50.0),
    (0.6, -0.2, 0.3, 100.0),    # 6.45 on x >= 0: side weight 0.19
    (0.6, 0.22, 0.3, 100.0),    # 6.71 on x <= 0: side weight 0.83
    (1.0, 0.0, 1.0, 40.0),      # lower bound sqrt(80) > 8: the tail route
    (0.6, 0.03, 0.9, 50.0),
]


def _scales(c, tau):
    return math.sqrt(tau / c), 1.0 / math.sqrt(2.0 * tau * c)


def test_draw_equals_reference_composition():
    # the flat _draw against _prob_nonneg(*_half_line_logs(...)) and
    # _std_lower_truncated, bit for bit, on inputs that reach every branch
    ranges, branches, reads = set(), set(), set()
    for i, (c, a, mu, tau) in enumerate(DRAW_CASES):
        s, sd = _scales(c, tau)
        ranges |= {("+", _erfcx_range(s * (mu - a))), ("-", _erfcx_range(s * (mu + a)))}
        lp, lm = _half_line_logs(s, a, mu)
        branches.add(lp - lm >= 0.0)
        rng, ref = bn.RngStream(40 + i), CountingStream(40 + i)
        got, want = [], []
        for _ in range(2000):
            got.append(_draw(c, a, mu, s, sd, rng))
            before = ref.count
            want.append(helpers.gibbs_draw_reference(c, a, mu, s, sd, ref))
            reads.add(ref.count - before)
        assert np.array(got).tobytes() == np.array(want).tobytes(), (c, a, mu, tau)
        # and the two read the same number of uniforms
        assert rng.uniform() == ref.uniform()
    assert ranges == {(h, r) for h in "+-" for r in ("above 5", "[-25, 5]", "below -25")}
    assert branches == {True, False}
    # 2 uniforms: side and inverse CDF; 3: side and one accepted tail
    # proposal; 5 or more: at least one rejected proposal
    assert {2, 3} <= reads
    assert max(reads) >= 5


@pytest.mark.parametrize("c, a, mu, tau", DRAW_CASES)
def test_draw_side_weight_equals_reference_bit_for_bit(c, a, mu, tau):
    # a side uniform at the reference weight, or one ulp below it, flips the
    # side if the flat weight differs from it by an ulp either way
    s, sd = _scales(c, tau)
    alpha = _prob_nonneg(*_half_line_logs(s, a, mu))
    for first in {alpha, math.nextafter(alpha, 0.0)}:
        rng, ref = bn.RngStream(9), bn.RngStream(9)
        got = [_draw(c, a, mu, s, sd, helpers.FirstUniform(first, rng)) for _ in range(20)]
        want = [
            helpers.gibbs_draw_reference(c, a, mu, s, sd, helpers.FirstUniform(first, ref))
            for _ in range(20)
        ]
        assert np.array(got).tobytes() == np.array(want).tobytes(), first


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
