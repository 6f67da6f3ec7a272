"""Error-function kernels, truncated-normal sampling, RNG stream.

log_erfcx and the standard truncated-normal draw evaluate erfc and erfcx from
scipy.special and the math module; the first tests hold scipy's to the
independent oracles in helpers.  The sampler tests draw a one-sided normal the
way the Gibbs draw does: shift and scale one standard lower-truncated draw.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc, erfcx

from bayonet import RngStream, log_erfcx
from bayonet.gibbs import _draw
from bayonet.special import _std_lower_truncated

import helpers


def test_erfc_at_zero():
    assert erfc(0.0) == 1.0


def test_erfc_reflection():
    assert erfc(-0.7) == pytest.approx(2.0 - erfc(0.7), rel=1e-15)


def test_erfc_against_series_oracle():
    for x in (0.3, 0.7, 1.0, 1.8, 2.5, 4.0):
        assert erfc(x) == pytest.approx(helpers.erfc_series(x), rel=1e-13)


def test_erfcx_at_zero():
    assert erfcx(0.0) == 1.0


def test_erfcx_large_argument_asymptote():
    x = 1e4
    assert erfcx(x) * x * math.sqrt(math.pi) == pytest.approx(1.0, abs=1e-4)


def test_erfcx_against_quadrature_oracle():
    # erfcx(2) = (2/sqrt(pi)) * int_2^inf exp(4 - t^2) dt
    from scipy import integrate

    val, _ = integrate.quad(lambda t: math.exp(4.0 - t * t), 2.0, np.inf, epsabs=1e-14)
    assert erfcx(2.0) == pytest.approx(2.0 / math.sqrt(math.pi) * val, rel=1e-12)


def test_erfcx_consistent_with_erfc_product():
    for x in np.linspace(-5.0, 20.0, 41):
        ref = math.exp(x * x) * erfc(x)
        assert erfcx(x) == pytest.approx(ref, rel=1e-12)


def test_erfcx_strictly_decreasing():
    # below about -26.6 the value exceeds the double range, so scan the
    # representable stretch
    xs = np.linspace(-26.0, 30.0, 401)
    vals = erfcx(xs)
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) < 0.0)


def test_log_erfcx_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for x in (-40.0, -26.0, -25.0, -24.0, -3.0, 0.0, 1.5, 30.0, 1e4):
        ref = float(mpmath.log(mpmath.exp(x * x) * mpmath.erfc(x)))
        assert log_erfcx(x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
# both switch points of log_erfcx, from each side
@example(5.0)
@example(math.nextafter(5.0, math.inf))
@example(math.nextafter(5.0, -math.inf))
@example(-25.0)
@example(math.nextafter(-25.0, -math.inf))
@given(
    st.one_of(
        st.floats(-40.0, 40.0),
        st.floats(-25.5, -24.5),
        st.floats(40.0, 1e8),
    )
)
def test_log_erfcx_property_against_high_precision(x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        m = mpmath.mpf(x)
        ref = float(m * m + mpmath.log(mpmath.erfc(m)))
    assert log_erfcx(x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_log_erfcx_branches_agree_at_switch():
    # both evaluation branches are representable at the switch point and
    # must produce the same value there
    x = -25.0
    direct = math.log(erfcx(x))
    shifted = x * x + math.log(2.0 - erfc(-x))
    assert log_erfcx(x) == pytest.approx(direct, rel=1e-13)
    assert log_erfcx(x) == pytest.approx(shifted, rel=1e-13)
    assert log_erfcx(0.0) == 0.0


# ---------------------------------------------------------------------------
# truncated-normal sampler


def truncated(mean, sd, rng):
    """N(mean, sd^2) restricted to x >= 0, drawn as gibbs._draw draws a side."""
    return mean + sd * _std_lower_truncated(-mean / sd, rng)


def test_truncated_sampler_far_from_boundary():
    rng = RngStream(11)
    sd = 1.0
    draws = np.array([truncated(10.0, sd, rng) for _ in range(100_000)])
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 10.0) < 3.0 * se


def test_truncated_sampler_half_normal_mean():
    rng = RngStream(12)
    sd = 2.0
    draws = np.array([truncated(0.0, sd, rng) for _ in range(100_000)])
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - sd * math.sqrt(2.0 / math.pi)) < 3.0 * se


def test_truncated_sampler_sign_constraints():
    # through the Gibbs draw, with its side forced by the first uniform: 0.0
    # picks x >= 0 whenever that side has any weight, and the largest uniform
    # below 1 picks x <= 0 here.  mean is the chosen side's untruncated mean.
    rng = RngStream(13)
    mu = 0.1
    top = math.nextafter(1.0, 0.0)
    for mean, sd, side in [(-4.0, 1.0, 1.0), (3.0, 0.5, -1.0), (0.0, 2.0, 1.0)]:
        tau = 1.0 / (2.0 * sd * sd)  # with c = 1, so s = sqrt(tau)
        a = mean + side * mu
        first = 0.0 if side > 0.0 else top
        draws = np.array([
            _draw(1.0, a, mu, math.sqrt(tau), sd, helpers.FirstUniform(first, rng))
            for _ in range(2000)
        ])
        assert np.all(np.copysign(1.0, draws) == side)


@pytest.mark.parametrize("mean,sd", [(0.0, 1.0), (2.0, 0.5), (-3.0, 2.0)])
def test_truncated_sampler_ks(mean, sd):
    # KS test at significance 0.01 against the analytic truncated CDF
    rng = RngStream(77)
    draws = np.array([truncated(mean, sd, rng) for _ in range(10_000)])
    dist = scipy.stats.truncnorm((0.0 - mean) / sd, np.inf, loc=mean, scale=sd)
    res = scipy.stats.kstest(draws, dist.cdf)
    assert res.pvalue > 0.01


def test_truncated_sampler_deep_tail_finite():
    # mean far inside the excluded region exercises the rejection branch
    rng = RngStream(14)
    draws = np.array([truncated(-30.0, 1.0, rng) for _ in range(500)])
    assert np.all(draws >= 0.0)
    assert np.all(np.isfinite(draws))
    # conditional mass sits just above zero: E ~ 1/a for standard a=30
    assert draws.mean() < 0.2


@pytest.mark.parametrize("a", [9.0, 15.0])
def test_truncated_sampler_tail_branch_ks(a):
    # lower bounds past 8 take the shifted-exponential rejection branch; KS
    # test at significance 0.01 against the analytic truncated CDF
    rng = RngStream(78)
    draws = np.array([_std_lower_truncated(a, rng) for _ in range(10_000)])
    assert np.all(draws >= a)
    res = scipy.stats.kstest(draws, scipy.stats.truncnorm(a, np.inf).cdf)
    assert res.pvalue > 0.01


class UniformOnly:
    """A stream with nothing but uniform(), from a scalar Philox generator."""

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.Philox(seed))

    def uniform(self):
        return self._gen.random()


def test_truncated_sampler_needs_only_uniforms():
    # both branches draw through uniform() alone, and with the same uniforms
    # a stub stream gives exactly the draws of an RngStream
    for a in (-3.0, 0.0, 8.0, 8.5, 15.0, 40.0):
        stub, rng = UniformOnly(5), RngStream(5)
        got = [_std_lower_truncated(a, stub) for _ in range(200)]
        assert got == [_std_lower_truncated(a, rng) for _ in range(200)]
        assert min(got) >= a


# ---------------------------------------------------------------------------
# RNG stream


def test_rng_stream_deterministic():
    a = RngStream(123)
    b = RngStream(123)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_rng_stream_uniforms_equal_scalar_generator_calls(seed):
    # the block-drawn uniforms are the scalar calls' doubles, across refills
    stream = RngStream(seed)
    gen = np.random.Generator(np.random.Philox(seed))
    got = [stream.uniform() for _ in range(3000)]
    assert all(type(u) is float for u in got)
    assert got == [gen.random() for _ in range(3000)]


def test_rng_stream_permutation_matches_fresh_generator():
    # cross-validation folds come from a fresh stream's permutation, which
    # must stay the generator's own
    perm = RngStream(0).permutation(442)
    ref = np.random.Generator(np.random.Philox(0)).permutation(442)
    assert np.array_equal(perm, ref)


def test_rng_stream_seeds_diverge():
    assert RngStream(1).uniform() != RngStream(2).uniform()


def test_rng_stream_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(TypeError):
        RngStream(1.5)
