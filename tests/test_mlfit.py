"""Penalized maximum-likelihood solver and the regularization path."""

import numpy as np
import pytest

import bayonet as bn
from bayonet.mlfit import _ml_cd

import helpers


def test_full_shrinkage_above_mu_max():
    std = helpers.random_standardized(20, 40, 5, beta=[1.0, 0.0, 0.0, -0.5, 0.0], noise=0.5)
    prob = bn.build_problem(std, 0.1, 1.0, 1.0)
    mu_max = float(np.abs(prob.w).max())
    sol = bn.solve_ml(prob.with_mu(mu_max * 1.0001))
    assert np.all(sol.x_hat == 0.0)
    assert sol.active_set == ()
    assert sol.h_min == 0.0
    assert sol.converged


def test_one_dim_soft_threshold():
    for c, w, mu in [(1.0, 0.5, 0.2), (2.0, -1.3, 0.4), (0.7, 0.9, 0.05)]:
        prob = bn.PenalizedProblem(
            c=np.array([[c]]), w=np.array([w]), mu=mu, lam=0.0, tau=1.0
        )
        sol = bn.solve_ml(prob, tol=1e-14)
        ref = np.sign(w) * (abs(w) - mu) / c
        assert sol.x_hat[0] == pytest.approx(ref, rel=1e-12)
        assert sol.active_set == (0,)


def test_just_below_mu_max_activates_something():
    for seed in range(5):
        std = helpers.random_standardized(100 + seed, 30, 4)
        prob = bn.build_problem(std, 0.1, 0.1, 1.0)
        mu_max = float(np.abs(prob.w).max())
        sol = bn.solve_ml(prob.with_mu(0.99 * mu_max), tol=1e-12)
        assert len(sol.active_set) >= 1


def test_diabetes_five_active_at_smallest_grid_mu(diabetes):
    if diabetes is None:
        pytest.skip("bundled benchmark dataset unavailable")
    std = bn.standardize(diabetes)
    prob = bn.build_problem(std, 0.1, 0.01, 1.0)
    grid = bn.mu_grid(bn.mu_max(prob.w), 10, 0.01)
    hit = None
    for mu in sorted(grid):
        sol = bn.solve_ml(prob.with_mu(float(mu)), tol=1e-12)
        if len(sol.active_set) == 5:
            hit = sol
            break
    assert hit is not None
    assert len(hit.active_set) == 5


def test_solution_invariant_under_coordinate_permutation():
    std = helpers.random_standardized(21, 60, 6, beta=[1.0, -0.4, 0.3, 0.0, 0.0, 0.2], noise=0.4)
    prob = bn.build_problem(std, 0.05, 0.08, 1.0)
    sol = bn.solve_ml(prob, tol=1e-12)
    perm = np.array([3, 0, 5, 1, 4, 2])
    prob_p = bn.PenalizedProblem(
        c=prob.c[np.ix_(perm, perm)], w=prob.w[perm], mu=prob.mu, lam=prob.lam, tau=prob.tau
    )
    sol_p = bn.solve_ml(prob_p, tol=1e-12)
    back = np.empty(6)
    back[perm] = sol_p.x_hat
    assert np.max(np.abs(back - sol.x_hat)) < 1e-10


def test_elastic_net_convention_identity():
    # the (lam, mu) cost matches the usual penalized form under
    # lam_tilde = 2(lam+mu), alpha = mu/(lam+mu)
    std = helpers.random_standardized(22, 50, 4, beta=[0.8, 0.0, -0.3, 0.0], noise=0.6)
    lam, mu = 0.06, 0.11
    prob = bn.build_problem(std, lam, mu, 1.0)
    lam_t = 2.0 * (lam + mu)
    alpha = mu / (lam + mu)
    rng = np.random.default_rng(23)
    n = std.n
    a, y = std.predictors, std.responses
    for _ in range(20):
        x = rng.standard_normal(4)
        lhs = bn.cost_h(prob, x) + np.dot(y, y) / (2 * n)
        rhs = np.sum((y - a @ x) ** 2) / (2 * n) + lam_t * (
            (1 - alpha) / 2 * np.dot(x, x) + alpha * np.abs(x).sum()
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_not_converged_flag(monkeypatch):
    monkeypatch.setattr(bn.mlfit, "_MAX_CYCLES", 1)
    std = helpers.random_standardized(24, 30, 8)
    prob = bn.build_problem(std, 0.01, 0.001, 1.0)
    sol = bn.solve_ml(prob, tol=1e-14)
    assert not sol.converged
    assert sol.cycles == 1


def test_path_starts_all_zero_above_mu_max():
    std = helpers.random_standardized(25, 40, 4)
    prob = bn.build_problem(std, 0.1, 0.1, 1.0)
    mu_max = float(np.abs(prob.w).max())
    mus = [mu_max * 1.5, mu_max * 0.5, mu_max * 0.1]
    path = [bn.solve_ml(prob.with_mu(m), tol=1e-12) for m in mus]
    assert np.all(path[0].x_hat == 0.0)
    assert all(s.active_set for s in path[1:])


def test_path_warm_equals_cold():
    std = helpers.random_standardized(26, 50, 5, beta=[1.0, -0.7, 0.0, 0.0, 0.3], noise=0.5)
    prob = bn.build_problem(std, 0.05, 0.1, 1.0)
    tol = 1e-12
    mus = [0.2, 0.02]
    # the warm start marginal_ml_approx gives each grid point's inner solve
    x = None
    for mu in mus:
        x, _, ok = _ml_cd(prob.c, prob.w, mu, x, tol)
        assert ok
        cold = bn.solve_ml(prob.with_mu(mu), tol=tol)
        assert np.max(np.abs(x - cold.x_hat)) < 10 * tol


def test_path_active_sets_nested_on_benchmark(diabetes):
    if diabetes is None:
        pytest.skip("bundled benchmark dataset unavailable")
    std = bn.standardize(diabetes)
    prob = bn.build_problem(std, 0.1, 0.01, 1.0)
    grid = bn.mu_grid(bn.mu_max(prob.w), 10, 0.01)
    path = [bn.solve_ml(prob.with_mu(m), tol=1e-12) for m in sorted(grid, reverse=True)]
    sizes = [len(s.active_set) for s in path]
    # along decreasing mu the active set should not shrink; lasso paths may
    # drop coordinates in principle, so genuine violations would surface here
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_h_min_matches_cost():
    std = helpers.random_standardized(28, 45, 4, beta=[0.9, 0.0, -0.2, 0.0], noise=0.4)
    prob = bn.build_problem(std, 0.03, 0.05, 1.0)
    sol = bn.solve_ml(prob, tol=1e-12)
    assert sol.h_min == pytest.approx(bn.cost_h(prob, sol.x_hat), abs=1e-14)
