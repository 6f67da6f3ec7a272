"""Stationary-point solver: coordinate cubic, Newton against the coordinate
sweep, fixed point, temperature path, random-input properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bayonet as bn
from bayonet import OneDimProblem, expectation_exact, saddle, solve_saddle, tau_path
from bayonet.saddle import coordinate_cubic

import helpers


def roots_oracle(a, c, mu, tau):
    """Enumerate all real cubic roots, keep admissible ones, pick the best."""
    coeffs = [c * c, -2.0 * a * c, a * a - mu * mu - c / tau, a / tau]
    cands = []
    for r in np.roots(coeffs):
        if abs(r.imag) > 1e-9 * max(1.0, abs(r)):
            continue
        x = float(r.real)
        u = a - c * x
        if abs(u) < mu:
            cands.append((abs((mu * mu - u * u) * x - u / tau), x))
    assert cands, "no admissible root found by the oracle"
    return min(cands)[1]


def test_cubic_zero_input():
    assert coordinate_cubic(0.0, 1.0, 0.1, 50.0) == 0.0


def test_cubic_against_root_enumeration():
    cases = [(0.5, 1.0, 0.05, 100.0)]
    rng = np.random.default_rng(30)
    for _ in range(200):
        cases.append(
            (
                float(rng.uniform(-2, 2)),
                float(rng.uniform(0.2, 3.0)),
                float(10 ** rng.uniform(-2, 0.7)),
                float(10 ** rng.uniform(0, 6)),
            )
        )
    for a, c, mu, tau in cases:
        x = coordinate_cubic(a, c, mu, tau)
        ref = roots_oracle(a, c, mu, tau)
        assert x == pytest.approx(ref, rel=1e-9, abs=1e-13), (a, c, mu, tau)


def test_cubic_zero_effect_limit():
    a, c, mu, tau = 0.05, 1.0, 0.1, 1e8
    x = coordinate_cubic(a, c, mu, tau)
    u = a - c * x
    assert abs(x) < 1e-6
    assert u == pytest.approx(a, abs=1e-6)
    assert x == pytest.approx(u / (tau * (mu * mu - u * u)), rel=1e-9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    log_a=st.floats(-8.0, 1.0),
    negative=st.booleans(),
    log_cjj=st.floats(-2.0, math.log10(30.0)),
    log_mu=st.floats(-6.0, 1.0),
    log_tau=st.floats(-4.0, 14.0),
)
def test_cubic_root_is_interior_with_small_residual(log_a, negative, log_cjj, log_mu, log_tau):
    a = -(10.0**log_a) if negative else 10.0**log_a
    c, mu, tau = 10.0**log_cjj, 10.0**log_mu, 10.0**log_tau
    x = coordinate_cubic(a, c, mu, tau)
    u = a - c * x
    assert abs(u) < mu
    assert x * a >= 0.0
    # the residual scale, plus the rounding floor: u = a - c*x carries an
    # error of about eps*|a|, which f feels through |df/du| = |2ux + 1/tau|
    eps = np.finfo(float).eps
    floor = 2.0 * eps * (abs(a) + mu) * (2.0 * mu * abs(x) + 1.0 / tau)
    assert abs((mu * mu - u * u) * x - u / tau) <= 1e-9 * (mu / tau + mu * mu * abs(x)) + floor


def test_cubic_root_next_to_the_box_edge():
    # the root lies within rounding of u = mu: x = 9 gives u = mu exactly,
    # and the solver must return the interior neighbour instead
    a, c, mu, tau = 10.0, 1.0, 1.0, 1e14
    x = coordinate_cubic(a, c, mu, tau)
    assert x == math.nextafter(9.0, math.inf)
    assert a - c * x < mu
    assert coordinate_cubic(-a, c, mu, tau) == -x


def test_cubic_non_finite_input_has_no_root():
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(bn.NoAdmissibleRoot):
            coordinate_cubic(a, 1.0, 0.1, 10.0)


def test_cubic_validation():
    with pytest.raises(ValueError):
        coordinate_cubic(0.1, -1.0, 0.1, 10.0)
    with pytest.raises(ValueError):
        coordinate_cubic(0.1, 1.0, 0.0, 10.0)


# ---------------------------------------------------------------------------
# full solver


def test_zero_w_fixed_point():
    prob = bn.PenalizedProblem(c=np.eye(3) * 0.7, w=np.zeros(3), mu=0.2, lam=0.0, tau=33.0)
    sol = solve_saddle(prob, np.zeros(3))
    assert np.all(sol.x_tau == 0.0)
    assert np.all(sol.u_tau == 0.0)
    assert sol.converged


def test_one_dim_matches_barrier_minimization():
    c, w, mu, tau = 1.0, 0.5, 0.25, 10.0

    def f(u):
        return (w - u) ** 2 / c - math.log(mu * mu - u * u) / tau

    u_star = helpers.golden_min(f, -mu + 1e-12, mu - 1e-12)
    prob = bn.PenalizedProblem(c=np.array([[c]]), w=np.array([w]), mu=mu, lam=0.0, tau=tau)
    sol = solve_saddle(prob, np.zeros(1), tol=1e-13)
    assert sol.u_tau[0] == pytest.approx(u_star, abs=1e-6)


def test_dual_primal_identity():
    std = helpers.random_standardized(31, 50, 3, beta=[0.8, -0.2, 0.0], noise=0.4)
    prob = bn.build_problem(std, 0.05, 0.1, 150.0)
    sol = solve_saddle(prob, bn.solve_ml(prob).x_hat, tol=1e-12)
    ref = sol.u_tau / (prob.tau * (prob.mu**2 - sol.u_tau**2))
    assert np.max(np.abs(sol.x_tau - ref)) < 1e-9


def test_strict_interiority_and_direct_residual():
    rng = np.random.default_rng(32)
    for k in range(20):
        p = int(rng.integers(2, 8))
        std = helpers.random_standardized(400 + k, 40, p)
        prob = bn.build_problem(std, 0.05, float(10 ** rng.uniform(-2, -0.5)), float(10 ** rng.uniform(0, 4)))
        sol = solve_saddle(prob, bn.solve_ml(prob, tol=1e-12).x_hat, tol=1e-11)
        assert sol.converged
        assert np.max(np.abs(sol.u_tau)) < prob.mu
        # residual recomputed with a dense solve, independent of the solver's
        # incremental bookkeeping
        x_direct = np.linalg.solve(prob.c, prob.w - sol.u_tau)
        res = (prob.mu**2 - sol.u_tau**2) * x_direct - sol.u_tau / prob.tau
        assert np.max(np.abs(res)) < 1e-10
        # primal and dual iterates stay mutually consistent
        gap = sol.u_tau - (prob.w - prob.c @ sol.x_tau)
        assert np.max(np.abs(gap)) < 1e-12 * max(1.0, np.max(np.abs(sol.u_tau)))


def test_cycle_count_moderate_at_map_tau(p5_suite):
    sol = solve_saddle(p5_suite["problem"], p5_suite["ml"].x_hat, tol=1e-10)
    assert sol.converged
    assert sol.cycles <= 20


def test_not_converged_flag(monkeypatch):
    monkeypatch.setattr(bn.saddle, "_MAX_CYCLES", 1)
    std = helpers.random_standardized(33, 30, 6)
    prob = bn.build_problem(std, 0.05, 0.05, 100.0)
    sol = solve_saddle(prob, np.zeros(6), tol=1e-14)
    assert not sol.converged


def sweep_reference(prob, x0, tol=1e-13, max_sweeps=20000):
    """Stationary point by repeated coordinate sweeps alone, the solver the
    Newton iteration replaced."""
    x = np.array(x0, dtype=float)
    u = prob.w - prob.c @ x
    res = math.inf
    for _ in range(max_sweeps):
        x, u, res = saddle._sweep(prob.c, prob.w, prob.mu, prob.tau, x, u)
        if res < tol:
            return x
    raise AssertionError(f"reference sweep stalled at residual {res}")


@pytest.mark.parametrize("n,p,seed", [(40, 5, 36), (20, 50, 37)])
def test_newton_matches_coordinate_sweep(n, p, seed):
    std = helpers.random_standardized(seed, n, p, beta=[1.0, -0.5] + [0.0] * (p - 2), noise=0.5)
    base = bn.build_problem(std, 0.1, 1.0, 1.0)
    assert (base.low_rank_factor is not None) == (p > n)
    base = base.with_mu(0.3 * float(np.abs(base.w).max()))
    ml = bn.solve_ml(base, tol=1e-12)
    for tau in (1e-2, 1.0, 1e2, 1e4, 1e6):
        prob = base.with_tau(tau)
        for start in (ml.x_hat, np.zeros(p)):
            ref = sweep_reference(prob, start)
            sol = solve_saddle(prob, start, tol=1e-12)
            assert sol.converged
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(sol.x_tau - ref)) / scale < 1e-8, (tau, start)


def test_fallback_sweep_runs_where_newton_cannot(monkeypatch):
    std = helpers.random_standardized(38, 40, 6, beta=[1.0, -0.7, 0.4, 0.0, 0.0, 0.0], noise=0.5)
    prob = bn.build_problem(std, 0.05, 0.05, 100.0)
    start = -10.0 * bn.solve_ml(prob, tol=1e-12).x_hat
    u0 = prob.w - prob.c @ start
    assert np.any(2.0 * u0 * start + 1.0 / prob.tau <= 0.0)
    calls = []

    def counting(*args):
        calls.append(args)
        return coordinate_cubic(*args)

    monkeypatch.setattr(saddle, "coordinate_cubic", counting)
    sol = solve_saddle(prob, start, tol=1e-11)
    assert sol.converged
    assert np.max(np.abs(sol.u_tau)) < prob.mu
    assert len(calls) >= prob.p
    ref = solve_saddle(prob, bn.solve_ml(prob, tol=1e-12).x_hat, tol=1e-11)
    assert np.max(np.abs(sol.x_tau - ref.x_tau)) < 1e-9


@settings(max_examples=150, deadline=None, derandomize=True)
@example(n=2, p=1, lam=1.0, mu_frac=0.015625, log_tau=8.0, seed=0)
@example(
    n=6, p=6, lam=0.2744517058350363, mu_frac=0.010000000000000002, log_tau=7.979018753790751, seed=6
)
@given(
    n=st.integers(2, 8),
    p=st.integers(1, 12),
    lam=st.floats(0.01, 1.0),
    mu_frac=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
    log_tau=st.floats(-3.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_converges_or_raises_typed(n, p, lam, mu_frac, log_tau, seed):
    tol = 1e-10
    rng = np.random.default_rng(seed)
    try:
        std = bn.standardize(
            bn.Dataset(responses=rng.standard_normal(n), predictors=rng.standard_normal((n, p)))
        )
        base = bn.build_problem(std, lam, 1.0, 10.0**log_tau)
        prob = base.with_mu(mu_frac * bn.mu_max(base.w))
        ml = bn.solve_ml(prob, tol=1e-12)
        sol = solve_saddle(prob, ml.x_hat, tol=tol)
    except bn.BayonetError:
        return
    assert np.all(np.isfinite(sol.x_tau)) and np.all(np.isfinite(sol.u_tau))
    assert sol.converged
    assert np.max(np.abs(sol.u_tau)) < prob.mu
    u = prob.w - prob.c @ sol.x_tau
    res = (prob.mu**2 - u**2) * sol.x_tau - u / prob.tau
    assert np.max(np.abs(res)) < tol


def test_small_tau_solve_converges():
    # at tau = 1e-6 the rounding of u = w - Cx, magnified by 1/tau, keeps
    # the raw residual near 1e-11; the tolerance scales with 1/tau below 1
    cases = ((61, 50, [0.9, -0.4, 0.0]), (62, 60, [1.0, 0.0, -0.6, 0.3, 0.0]), (63, 40, [0.7, 0.2]))
    for seed, n, beta in cases:
        p = len(beta)
        std = helpers.random_standardized(seed, n, p, beta=beta, noise=0.4)
        prob = bn.build_problem(std, 0.1, 0.08, 1e-6)
        sol = solve_saddle(prob, np.zeros(p), tol=1e-12)
        assert sol.converged and sol.cycles <= 5, seed
        assert sol.residual < 1e-12 / prob.tau
        assert np.max(np.abs(sol.u_tau)) < prob.mu


def test_opposite_sign_start_at_box_edge_is_not_converged():
    # x = w - mu + 1e-12 puts u within 1e-12 of mu with x < 0: a = mu^2 - u^2
    # is ~1e-12, so at tau = 1e10 the residual |a x - u/tau| is ~5e-11 < tol
    # although x is far from the root
    c, w, mu, tau = 1.0, 0.2, 0.5, 1e10
    prob = bn.PenalizedProblem(c=np.array([[c]]), w=np.array([w]), mu=mu, lam=0.0, tau=tau)
    init = np.array([w - mu + 1e-12])
    one = OneDimProblem(c=c, w=w, mu=mu, tau=tau)
    sol = solve_saddle(prob, init)
    assert sol.converged and sol.cycles > 0
    assert 0.0 < sol.x_tau[0] < 1e-9
    assert sol.x_tau[0] == pytest.approx(expectation_exact(one), rel=1e-4)
    assert bn.log_partition(prob, sol).log_z == pytest.approx(bn.log_z_exact(one), abs=1e-8)
    first = tau_path(prob, [tau, tau / 10.0], init=init)[0]
    assert first.x_tau[0] == sol.x_tau[0]


def test_solver_validation():
    prob = bn.PenalizedProblem(c=np.eye(2), w=np.zeros(2), mu=0.1, lam=0.0, tau=1.0)
    with pytest.raises(ValueError):
        solve_saddle(prob, np.zeros(3))
    with pytest.raises(ValueError):
        solve_saddle(prob, np.zeros(2), tol=0.0)


# ---------------------------------------------------------------------------
# temperature path


def test_path_single_element_equals_direct_solve():
    std = helpers.random_standardized(34, 40, 3, beta=[1.0, 0.0, -0.3], noise=0.5)
    prob = bn.build_problem(std, 0.05, 0.1, 1.0)
    ml = bn.solve_ml(prob, tol=1e-12)
    path = tau_path(prob, [250.0], init=ml.x_hat, tol=1e-11)
    direct = solve_saddle(prob.with_tau(250.0), ml.x_hat, tol=1e-11)
    assert path[0].x_tau == pytest.approx(direct.x_tau, abs=1e-15)


def test_path_warm_equals_cold():
    std = helpers.random_standardized(35, 40, 4, beta=[0.7, -0.5, 0.0, 0.0], noise=0.4)
    prob = bn.build_problem(std, 0.05, 0.08, 1.0)
    prob = prob.with_mu(0.3)
    ml = bn.solve_ml(prob, tol=1e-12)
    tol = 1e-12
    taus = [1000.0, 100.0, 10.0]
    warm = tau_path(prob, taus, init=ml.x_hat, tol=tol)
    for t, sol in zip(taus, warm):
        cold = solve_saddle(prob.with_tau(t), np.zeros(4), tol=tol)
        assert np.max(np.abs(sol.x_tau - cold.x_tau)) < 10 * tol


def test_path_approaches_sparse_minimizer():
    # one-coordinate setup: distance to the sparse minimizer and distance to
    # the exact posterior mean both shrink as tau grows
    c, w, mu = 1.0, 0.5, 0.25
    prob = bn.PenalizedProblem(c=np.array([[c]]), w=np.array([w]), mu=mu, lam=0.0, tau=1.0)
    x_hat = (w - mu) / c
    taus = [10000.0, 1000.0, 100.0, 10.0]
    d_hat, d_exact = [], []
    for sol in tau_path(prob, taus, init=np.array([x_hat]), tol=1e-13):
        e = expectation_exact(OneDimProblem(c=c, w=w, mu=mu, tau=sol.tau))
        d_hat.append(abs(sol.x_tau[0] - x_hat))
        d_exact.append(abs(sol.x_tau[0] - e))
    # path order is descending tau, so distances grow along the path
    assert np.all(np.diff(d_hat) > 0.0)
    assert np.all(np.diff(d_exact) > 0.0)


def test_path_requires_decreasing_taus():
    prob = bn.PenalizedProblem(c=np.eye(2), w=np.zeros(2), mu=0.1, lam=0.0, tau=1.0)
    with pytest.raises(ValueError):
        tau_path(prob, [10.0, 100.0])
    with pytest.raises(ValueError):
        tau_path(prob, [])
