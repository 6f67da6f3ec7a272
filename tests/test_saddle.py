"""Stationary-point solver: coordinate cubic, Newton against the coordinate
sweep, fixed point, temperature path, random-input properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bayonet as bn
from bayonet import OneDimProblem, expectation_exact, saddle, solve_saddle, tau_path
from bayonet.partition import _CPlusD
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
    std = helpers.random_standardized(33, 30, 6)
    prob = bn.build_problem(std, 0.05, 0.05, 100.0)
    start = solve_saddle(prob, np.zeros(6), tol=1e-13).x_tau
    monkeypatch.setattr(bn.saddle, "_MAX_CYCLES", 1)
    sol = solve_saddle(prob, np.zeros(6), tol=1e-14)
    assert not sol.converged
    # each lane of a path spends its own budget: the lane started at its
    # own solution leaves in its first cycle, lanes still running when the
    # budget is spent return unconverged
    monkeypatch.setattr(bn.saddle, "_MAX_CYCLES", 3)
    path = tau_path(prob, [100.0, 10.0, 1.0, 0.1], init=start)
    assert path[0].converged and path[0].cycles == 1
    assert not all(sol.converged for sol in path)
    assert all(sol.cycles == 3 for sol in path if not sol.converged)


def sweep_reference(prob, x0, tol=1e-13, max_sweeps=20000):
    """Stationary point by repeated coordinate sweeps alone, the solver the
    Newton iteration replaced."""
    x = np.array(x0, dtype=float)
    u = prob.w - prob.c @ x
    res = math.inf
    for _ in range(max_sweeps):
        x, u, res = saddle._sweep(prob, x, u)
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
    # in a path from the same start the lanes at large tau need sweeps,
    # while at tau = 1e-4 1/tau keeps every b > 0 and Newton steps suffice
    swept, sweep_ = [], saddle._sweep

    def sweep(problem, x, u):
        swept.append(problem.tau)
        return sweep_(problem, x, u)

    monkeypatch.setattr(saddle, "_sweep", sweep)
    taus = [100.0, 10.0, 1e-4]
    tol = 1e-11
    for t, sol in zip(taus, tau_path(prob, taus, init=start, tol=tol)):
        ref = solve_saddle(prob.with_tau(t), start, tol=tol)
        assert sol.converged and ref.converged
        assert np.max(np.abs(sol.x_tau - ref.x_tau)) < 10 * tol * max(1.0, 1.0 / t)
    assert {100.0, 10.0} <= set(swept) and 1e-4 not in swept


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


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_init_is_a_value_error(bad):
    # a bad argument, not NoAdmissibleRoot (which reports a numerical bug)
    std = helpers.random_standardized(58, 60, 4)
    prob = bn.build_problem(std, 0.1, 0.1, 50.0)
    init = np.array([bad, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="init must be finite"):
        solve_saddle(prob, init)
    with pytest.raises(ValueError, match="init must be finite"):
        tau_path(prob, [50.0, 5.0], init=init)


# ---------------------------------------------------------------------------
# temperature path


def test_path_single_element_equals_direct_solve():
    std = helpers.random_standardized(34, 40, 3, beta=[1.0, 0.0, -0.3], noise=0.5)
    prob = bn.build_problem(std, 0.05, 0.1, 1.0)
    ml = bn.solve_ml(prob, tol=1e-12)
    path = tau_path(prob, [250.0], init=ml.x_hat, tol=1e-11)
    direct = solve_saddle(prob.with_tau(250.0), ml.x_hat, tol=1e-11)
    assert path[0].x_tau == pytest.approx(direct.x_tau, abs=1e-15)
    # on a grid, every lane is the solve of its tau from the same start,
    # on a direct and on a wide (p > n) problem
    wide = helpers.random_standardized(39, 20, 50, beta=[1.0, -0.5] + [0.0] * 48, noise=0.5)
    wide = bn.build_problem(wide, 0.1, 1.0, 1.0)
    assert wide.low_rank_factor is not None
    tol = 1e-11
    taus = [1e6, 1e4, 250.0, 10.0, 1.0]
    for base in (prob, wide):
        base = base.with_mu(0.3 * float(np.abs(base.w).max()))
        ml = bn.solve_ml(base, tol=1e-12)
        for t, sol in zip(taus, tau_path(base, taus, init=ml.x_hat, tol=tol)):
            ref = solve_saddle(base.with_tau(t), ml.x_hat, tol=tol)
            assert sol.tau == t and sol.converged == ref.converged
            assert np.max(np.abs(sol.x_tau - ref.x_tau)) < 10 * tol


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
    # a (mu, tau) grid in one call, each mu from its own sparse minimizer,
    # active (mu < w) and inactive (mu > w): every mu row matches the exact
    # mean to O(1/tau) and is that mu's own path
    mus = [0.1, 0.25, 0.4, 0.6]
    starts = [[max(w - m, 0.0) / c] for m in mus]
    grid = tau_path(prob, taus, init=starts, tol=1e-13, mus=mus)
    assert len(grid) == len(mus) * len(taus)
    for i, m in enumerate(mus):
        row = grid[i * len(taus) : (i + 1) * len(taus)]
        alone = tau_path(prob.with_mu(m), taus, init=np.array(starts[i]), tol=1e-13)
        gaps = []
        for sol, ref in zip(row, alone):
            e = expectation_exact(OneDimProblem(c=c, w=w, mu=m, tau=sol.tau))
            assert sol.converged and sol.tau == ref.tau
            assert abs(sol.x_tau[0] - ref.x_tau[0]) < 1e-15
            gaps.append(abs(sol.x_tau[0] - e))
            assert gaps[-1] * sol.tau < 10.0, (m, sol.tau)
        assert np.all(np.diff(gaps) > 0.0)


def test_mu_tau_grid_equals_cell_solves():
    # every lane of a (mu, tau) grid is the solve of its own cell from its
    # mu's start, on a direct and on a wide (p > n) problem
    direct = helpers.random_standardized(34, 40, 3, beta=[1.0, 0.0, -0.3], noise=0.5)
    wide = helpers.random_standardized(39, 20, 50, beta=[1.0, -0.5] + [0.0] * 48, noise=0.5)
    taus = [1e6, 1e4, 250.0, 10.0, 1.0]
    tol = 1e-10
    for std in (direct, wide):
        base = bn.build_problem(std, 0.1, 1.0, 1.0)
        cap = float(np.abs(base.w).max())
        mus = [0.6 * cap, 0.3 * cap, 0.05 * cap]
        starts = [bn.solve_ml(base.with_mu(m), tol=1e-12).x_hat for m in mus]
        grid = tau_path(base, taus, init=starts, tol=tol, mus=mus)
        k = 0
        for m, start in zip(mus, starts):
            for t in taus:
                ref = solve_saddle(base.with_mu(m).with_tau(t), start, tol=tol)
                assert grid[k].tau == t and grid[k].converged == ref.converged
                assert np.max(np.abs(grid[k].x_tau - ref.x_tau)) < 1e-12
                k += 1


def test_failed_stack_factor_sweeps_only_that_lane(monkeypatch):
    # one lane's C + D system in a batched solve is made unsolvable: that
    # lane falls back to coordinate sweeps and still converges, while the
    # other lanes take the steps of their one-lane solves
    std = helpers.random_standardized(38, 40, 6, beta=[1.0, -0.7, 0.4, 0.0, 0.0, 0.0], noise=0.5)
    base = bn.build_problem(std, 0.05, 1.0, 1.0)
    cap = float(np.abs(base.w).max())
    # e = (mu^2 - u^2)/b <= mu^2 tau: at most 1.4 in the lanes with mu <=
    # 0.3 cap, above 30 in those with mu = 5 cap, which start at x = 0
    mus = [0.3 * cap, 0.1 * cap, 5.0 * cap]
    starts = [bn.solve_ml(base.with_mu(m), tol=1e-12).x_hat for m in mus]
    taus = [100.0, 10.0]
    solve_stack, solve = _CPlusD.solve_stack, np.linalg.solve
    swept, stacked = [], []

    def poisoned(problem, e, rhs, ok):
        # the mu = 5 cap lanes get a non-finite e; the others are solved
        big = e.max(axis=1, keepdims=True) > 10.0
        return solve_stack(problem, np.where(big, math.nan, e), rhs, ok)

    def batched(matrix, rhs):
        stacked.append(matrix.shape[0])
        return solve(matrix, rhs)

    def sweep(problem, x, u):
        swept.append(problem.mu)
        return sweep_(problem, x, u)

    sweep_ = saddle._sweep
    tol = 1e-11
    refs = [
        solve_saddle(base.with_mu(m).with_tau(t), start, tol=tol)
        for m, start in zip(mus, starts)
        for t in taus
    ]
    monkeypatch.setattr(_CPlusD, "solve_stack", staticmethod(poisoned))
    monkeypatch.setattr(np.linalg, "solve", batched)
    monkeypatch.setattr(saddle, "_sweep", sweep)
    grid = tau_path(base, taus, init=starts, tol=tol, mus=mus)
    assert stacked and set(swept) == {5.0 * cap}
    for k, (sol, ref) in enumerate(zip(grid, refs)):
        assert sol.converged and ref.converged
        if k < 4:
            assert sol.cycles == ref.cycles
            assert np.max(np.abs(sol.x_tau - ref.x_tau)) < 1e-12
        else:
            assert np.max(np.abs(sol.x_tau - ref.x_tau)) < 10 * tol


def test_doomed_lanes_leave_before_their_first_cycle():
    # no x gives a finite residual where mu * mu overflows: those lanes
    # return unconverged after 0 cycles, and the other lanes take their
    # iterates bit for bit
    std = helpers.random_standardized(40, 60, 6, beta=[1.0, -0.5, 0.3, 0.0, 0.0, 0.0])
    base = bn.build_problem(std, 0.1, 1.0, 1.0)
    taus = [1.0, 100.0]
    mus = [0.05, 1e155, 0.1]
    starts = [bn.solve_ml(base.with_mu(m)).x_hat for m in mus]
    grid = tau_path(base, taus, init=starts, mus=mus)
    clean = tau_path(base, taus, init=starts[::2], mus=mus[::2])
    for sol in grid[2:4]:
        assert sol.mu == 1e155 and not sol.converged and sol.cycles == 0
    for sol, ref in zip(grid[:2] + grid[4:], clean):
        assert sol.converged and sol.cycles == ref.cycles
        assert np.array_equal(sol.x_tau, ref.x_tau)


def test_doomed_wide_solve_takes_no_cycle():
    std = helpers.random_standardized(41, 100, 400)
    prob = bn.build_problem(std, 0.1, 1e155, 10.0)
    sol = solve_saddle(prob, bn.solve_ml(prob).x_hat)
    assert not sol.converged and sol.cycles == 0


@pytest.mark.parametrize(
    "mus,init",
    [
        ([], None),
        ([0.1, -0.2], None),
        ([0.1, math.inf], None),
        ([0.1, math.nan], None),
        ([0.1, 0.2], np.zeros(3)),
        ([0.1, 0.2], np.zeros((3, 3))),
        ([0.1, 0.2], np.zeros((2, 2))),
        ([0.1, 0.2], [[0.0, 0.0, 0.0], [0.0, math.nan, 0.0]]),
        ([[0.1, 0.2]], None),
    ],
)
def test_mu_grid_validation(mus, init):
    prob = bn.PenalizedProblem(c=np.eye(3), w=np.full(3, 0.5), mu=0.1, lam=0.0, tau=1.0)
    with pytest.raises(ValueError):
        tau_path(prob, [10.0, 1.0], init=init, mus=mus)


def test_path_requires_positive_finite_taus():
    prob = bn.PenalizedProblem(c=np.eye(2), w=np.zeros(2), mu=0.1, lam=0.0, tau=1.0)
    for grid in ([], np.array([])):
        with pytest.raises(ValueError, match="taus is empty"):
            tau_path(prob, grid)
        with pytest.raises(ValueError, match="mus is empty"):
            tau_path(prob, [10.0], mus=grid)
    with pytest.raises(ValueError):
        tau_path(prob, [[10.0, 1.0]])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            tau_path(prob, [10.0, bad])


def test_path_in_any_tau_order_equals_sorted():
    # every lane is its own (mu, tau) cell: a shuffled tau grid gives the
    # sorted grid's solves cell for cell, on a direct and on a wide (p > n)
    # problem, with and without mus
    direct = helpers.random_standardized(34, 40, 3, beta=[1.0, 0.0, -0.3], noise=0.5)
    wide = helpers.random_standardized(39, 20, 50, beta=[1.0, -0.5] + [0.0] * 48, noise=0.5)
    taus = [1.0, 10.0, 250.0, 1e4, 1e6]
    order = [3, 0, 4, 2, 1]
    n = len(taus)
    for std in (direct, wide):
        base = bn.build_problem(std, 0.1, 1.0, 1.0)
        cap = float(np.abs(base.w).max())
        mus = [0.6 * cap, 0.3 * cap, 0.05 * cap]
        starts = [bn.solve_ml(base.with_mu(m), tol=1e-12).x_hat for m in mus]
        for prob, init, grid_mus in ((base.with_mu(mus[1]), starts[1], None),
                                     (base, starts, mus)):
            ref = tau_path(prob, taus, init=init, tol=1e-10, mus=grid_mus)
            got = tau_path(prob, [taus[k] for k in order], init=init, tol=1e-10,
                           mus=grid_mus)
            assert len(got) == len(ref) and all(sol.converged for sol in ref)
            for i in range(len(ref) // n):
                for j, k in enumerate(order):
                    a, b = got[i * n + j], ref[i * n + k]
                    assert a.tau == b.tau and a.converged == b.converged
                    assert a.cycles == b.cycles
                    assert np.max(np.abs(a.x_tau - b.x_tau)) <= 1e-12


def test_departed_lanes_rows_are_never_written(monkeypatch):
    # lane k keeps row k of the stack, and its SaddleSolution's x_tau and
    # u_tau are views of that row: once it has left, no Newton step and no
    # fallback sweep may touch the row.  One lane starts converged and leaves
    # at cycle 1, while the lanes from -10 x the ML start still sweep
    std = helpers.random_standardized(38, 40, 6, beta=[1.0, -0.7, 0.4, 0.0, 0.0, 0.0], noise=0.5)
    prob = bn.build_problem(std, 0.05, 0.05, 100.0)
    start = -10.0 * bn.solve_ml(prob, tol=1e-12).x_hat
    converged = solve_saddle(prob, start, tol=1e-12).x_tau
    step_, sweep_ = saddle._newton_step, saddle._sweep
    stack, gone, swept_after = {}, {}, []

    def unchanged():
        x, u, res = stack["rows"]
        for k, (xk, uk, rk) in gone.items():
            assert np.array_equal(x[k], xk) and np.array_equal(u[k], uk) and res[k] == rk

    def step(problem, x, u, b, res, tau, mu, live):
        stack["rows"] = (x, u, res)
        for k in (~live).nonzero()[0]:
            gone.setdefault(k, (x[k].copy(), u[k].copy(), res[k]))
        unchanged()
        moved = step_(problem, x, u, b, res, tau, mu, live)
        unchanged()
        assert not (moved & ~live).any()
        return moved

    def sweep(problem, x, u):
        rows = stack["rows"][0]
        assert not any(np.shares_memory(x, rows[k]) for k in gone)
        if gone:
            swept_after.append(problem.mu)
        return sweep_(problem, x, u)

    monkeypatch.setattr(saddle, "_newton_step", step)
    monkeypatch.setattr(saddle, "_sweep", sweep)
    taus = [100.0, 10.0, 1.0, 1e-4]
    grid = tau_path(prob, taus, init=[converged, start], tol=1e-11, mus=[0.05, 0.06])
    unchanged()
    assert all(sol.converged for sol in grid)
    assert grid[0].cycles == 1 and len({sol.cycles for sol in grid}) >= 4
    assert swept_after
    for k, (xk, uk, _) in gone.items():
        assert np.array_equal(grid[k].x_tau, xk) and np.array_equal(grid[k].u_tau, uk)


def test_stacked_newton_step_equals_one_row_steps(monkeypatch):
    # one stacked call holds a row that backtracks, one that takes the full
    # step, one that finds no step and one that is not live: each live row
    # takes its one-row step, and the row that is not live is left as it was
    std = helpers.random_standardized(38, 40, 6, beta=[1.0, -0.7, 0.4, 0.0, 0.0, 0.0], noise=0.5)
    prob = bn.build_problem(std, 0.05, 0.05, 1.0)
    ml = bn.solve_ml(prob, tol=1e-12).x_hat
    # row 3 would take the full step were it live
    x0 = np.array([2.0 * ml, ml, 0.5 * ml, ml])
    tau = np.array([[1.0], [1.0], [100.0], [10.0]])
    mu = np.full((4, 1), 0.05)
    live = np.array([True, True, True, False])
    residual, trials = saddle._residual, []

    def counted(*args):
        trials[-1] += 1
        return residual(*args)

    def newton(rows):
        x = x0[rows].copy()
        u = prob.w - prob._matvec(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            res = residual(x, u, mu[rows], tau[rows])
            b = 2.0 * u * x + 1.0 / tau[rows]
            trials.append(0)
            moved = saddle._newton_step(prob, x, u, b, res, tau[rows], mu[rows], live[rows])
        return x, u, res, moved

    monkeypatch.setattr(saddle, "_residual", counted)
    stack = newton(slice(None))
    assert stack[3].tolist() == [True, True, False, False]
    for k in range(3):
        one = newton(slice(k, k + 1))
        assert one[3][0] == stack[3][k]
        for got, ref in zip(stack[:3], one[:3]):
            assert np.max(np.abs(got[k] - ref[0])) < 1e-12, k
    # t = 1/2 for row 0, the full step for row 1, and every t down to
    # _MIN_STEP for row 2
    assert trials[1:] == [2, 1, 14]
    u0 = prob.w - prob._matvec(x0)
    assert np.array_equal(stack[0][3], x0[3]) and np.array_equal(stack[1][3], u0[3])
    assert stack[2][3] == residual(x0, u0, mu, tau)[3]
