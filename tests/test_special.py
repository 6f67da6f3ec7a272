"""Error-function kernels and the RNG stream.

log_erfcx evaluates erfc from the math module on both branches at or below
5, and erfcx from scipy.special above 5, which it imports on its first such
call; the first tests hold scipy's erfc and erfcx to the independent
oracles in helpers, and the bit-identity tests hold each branch to the
formula it evaluates, with scipy's functions in place of math.erfc.
"""

import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc, erfcx

import bayonet
from bayonet import RngStream
from bayonet.special import log_erfcx

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


def _above_5():
    # the switch point and 10,000 seeded points log-uniform on (5, 5e12)
    rng = np.random.default_rng(11)
    xs = 5.0 * 10.0 ** rng.uniform(1e-9, 12.0, 10_000)
    return [math.nextafter(5.0, math.inf), *xs.tolist()]


def _below_minus_25():
    # the switch point and 10,000 seeded points log-uniform on (-1e6, -25)
    rng = np.random.default_rng(12)
    xs = -25.0 - 10.0 ** rng.uniform(-9.0, 6.0, 10_000)
    return [math.nextafter(-25.0, -math.inf), *xs.tolist()]


def test_log_erfcx_above_5_is_the_log_of_scipys_erfcx():
    xs = _above_5()
    assert min(xs) > 5.0
    assert [log_erfcx(x) for x in xs] == [math.log(erfcx(x)) for x in xs]


def test_log_erfcx_below_minus_25_is_bit_identical_to_scipys_erfc():
    # 2 - erfc(-x) rounds to 2.0 there with either library's erfc
    xs = _below_minus_25()
    assert max(xs) < -25.0
    got = [log_erfcx(x) for x in xs]
    assert got == [x * x + math.log(2.0 - erfc(-x)) for x in xs]


def test_log_erfcx_first_call_above_5_in_a_fresh_process():
    # the first call above 5 imports scipy.special's erfcx; what it returns
    # is what this process, which has it loaded, computes
    xs = [math.nextafter(5.0, math.inf), 30.0]
    env = dict(os.environ, PYTHONPATH=str(Path(bayonet.__file__).parents[1]))
    code = ("import sys; from bayonet.special import log_erfcx; "
            "print([log_erfcx(float.fromhex(a)) for a in sys.argv[1:]])")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *(x.hex() for x in xs)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout == f"{[log_erfcx(x) for x in xs]}\n"


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


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_rng_stream_normals_leave_the_uniforms_alone(seed):
    # normals come from the seed's Philox jumped by 2^128 draws, block-drawn
    # like the uniforms; reading them between uniforms, across refills of
    # both blocks, changes no uniform
    stream = RngStream(seed)
    gen = np.random.Generator(np.random.Philox(seed))
    ngen = np.random.Generator(np.random.Philox(seed).jumped())
    got_u, got_n = [], []
    for i in range(3000):
        got_u.append(stream.uniform())
        got_n += [stream.normal() for _ in range(i % 3)]
    assert all(type(z) is float for z in got_n)
    assert got_u == [gen.random() for _ in range(3000)]
    assert np.array_equal(got_n, ngen.standard_normal(len(got_n)))


def test_rng_stream_permutation_matches_fresh_generator():
    # cross-validation folds come from a fresh stream's permutation, which
    # must stay the generator's own
    perm = RngStream(0).permutation(442)
    ref = np.random.Generator(np.random.Philox(0)).permutation(442)
    assert np.array_equal(perm, ref)


def test_rng_stream_is_freed_without_the_cyclic_collector():
    # a stream that has served uniforms and normals, across refills of both
    # blocks, holds no reference to itself: dropping it frees it, and its
    # two blocks, with the cyclic collector off
    stream = RngStream(3)
    for _ in range(1500):
        stream.uniform()
        stream.normal()
    ref = weakref.ref(stream)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del stream
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_rng_stream_seeds_diverge():
    assert RngStream(1).uniform() != RngStream(2).uniform()


def test_rng_stream_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(TypeError):
        RngStream(1.5)
