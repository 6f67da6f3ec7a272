"""Closed-form single-coordinate posterior: partition value, sign mass,
expectation, density.  The reference throughout is adaptive quadrature."""

import math

import numpy as np
import pytest

from bayonet import (
    OneDimProblem,
    density_exact,
    expectation_exact,
    log_z_exact,
    prob_nonnegative,
)

import helpers


def test_log_z_matches_quadrature():
    p = OneDimProblem(c=1.0, w=0.5, mu=0.5, tau=10.0)
    ref = helpers.quad_log_z(1.0, 0.5, 0.5, 10.0)
    assert log_z_exact(p) == pytest.approx(ref, rel=1e-10)


def test_log_z_even_in_w():
    for w in (0.3, 1.7):
        a = log_z_exact(OneDimProblem(c=0.8, w=w, mu=0.4, tau=25.0))
        b = log_z_exact(OneDimProblem(c=0.8, w=-w, mu=0.4, tau=25.0))
        assert a == pytest.approx(b, rel=1e-14)


def test_log_z_recombines_across_parameter_box():
    # two half-line pieces recombine to the quadrature value on a 3^4 grid
    for c in (0.5, 1.0, 2.0):
        for w in (-0.3, 0.5, 1.2):
            for mu in (0.05, 0.5, 5.0):
                for tau in (1.0, 1e2, 1e4):
                    val = log_z_exact(OneDimProblem(c=c, w=w, mu=mu, tau=tau))
                    ref = helpers.quad_log_z(c, w, mu, tau)
                    assert val == pytest.approx(ref, rel=1e-10), (c, w, mu, tau)


def test_free_energy_gap_closes():
    c, w, mu = 1.0, 0.5, 0.05
    xh = (w - mu) / c
    h_min = c * xh * xh - 2 * w * xh + 2 * mu * abs(xh)
    tau = 1e6
    gap = -log_z_exact(OneDimProblem(c=c, w=w, mu=mu, tau=tau)) / tau - h_min
    assert 0.0 < gap < 1e-5


def test_sign_mass_balanced_at_zero_w():
    p = OneDimProblem(c=1.0, w=0.0, mu=0.3, tau=40.0)
    assert prob_nonnegative(p) == pytest.approx(0.5, abs=1e-14)


def test_sign_mass_tracks_w_sign():
    for w in np.linspace(-2.0, 2.0, 17):
        if w == 0.0:
            continue
        alpha = prob_nonnegative(OneDimProblem(c=1.0, w=float(w), mu=0.3, tau=7.0))
        assert 0.0 < alpha < 1.0
        assert (alpha > 0.5) == (w > 0.0)


def test_expectation_zero_at_zero_w():
    assert expectation_exact(OneDimProblem(c=1.0, w=0.0, mu=0.2, tau=30.0)) == 0.0


def test_expectation_is_log_z_derivative():
    # E(x) = (1/2tau) d log Z / dw, central difference
    c, mu, tau = 1.3, 0.25, 50.0
    h = 1e-6
    for w in (-0.8, 0.1, 0.6):
        lp = log_z_exact(OneDimProblem(c=c, w=w + h, mu=mu, tau=tau))
        lm = log_z_exact(OneDimProblem(c=c, w=w - h, mu=mu, tau=tau))
        fd = (lp - lm) / (2.0 * h) / (2.0 * tau)
        assert expectation_exact(OneDimProblem(c=c, w=w, mu=mu, tau=tau)) == pytest.approx(
            fd, abs=1e-6
        )


def test_expectation_soft_threshold_limit():
    p = OneDimProblem(c=1.0, w=0.5, mu=0.2, tau=1e8)
    assert expectation_exact(p) == pytest.approx(0.3, abs=1e-6)


def test_expectation_strictly_increasing_in_w():
    vals = [
        expectation_exact(OneDimProblem(c=1.0, w=float(w), mu=0.3, tau=12.0))
        for w in np.linspace(-2.0, 2.0, 41)
    ]
    assert np.all(np.diff(vals) > 0.0)


def test_density_normalizes():
    p = OneDimProblem(c=1.0, w=0.4, mu=0.3, tau=200.0)
    center = expectation_exact(p)
    sd = 1.0 / math.sqrt(2.0 * p.tau * p.c)
    grid = np.linspace(center - 8 * sd, center + 8 * sd, 4001)
    mass = np.trapezoid(density_exact(p, grid), grid)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_density_even_for_zero_w():
    p = OneDimProblem(c=1.0, w=0.0, mu=0.3, tau=80.0)
    xs = np.linspace(0.01, 0.2, 9)
    assert density_exact(p, xs) == pytest.approx(density_exact(p, -xs), rel=1e-12)


def test_density_matches_quadrature_pointwise():
    p = OneDimProblem(c=1.2, w=0.5, mu=0.3, tau=60.0)
    xs = np.linspace(-0.2, 0.8, 11)
    ref = helpers.quad_density(1.2, 0.5, 0.3, 60.0, xs)
    assert density_exact(p, xs) == pytest.approx(ref, rel=1e-10)


def test_problem_validation():
    with pytest.raises(ValueError):
        OneDimProblem(c=0.0, w=0.5, mu=0.1, tau=1.0)
    with pytest.raises(ValueError):
        OneDimProblem(c=1.0, w=0.5, mu=-0.1, tau=1.0)
    with pytest.raises(ValueError):
        OneDimProblem(c=1.0, w=0.5, mu=0.1, tau=0.0)


@pytest.mark.parametrize(
    "fields",
    [
        {"tau": math.inf},
        {"mu": math.inf},
        {"c": math.inf},
        {"tau": math.nan},
        {"w": math.inf},
        {"w": math.nan},
    ],
    ids=["tau-inf", "mu-inf", "c-inf", "tau-nan", "w-inf", "w-nan"],
)
def test_problem_rejects_non_finite(fields):
    # a non-finite field used to construct and fail later inside log_erfcx
    # ("math domain error"), or give an infinite log Z
    with pytest.raises(ValueError, match="finite"):
        OneDimProblem(**{"c": 1.0, "w": 0.2, "mu": 0.1, "tau": 1.0, **fields})
