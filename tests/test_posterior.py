"""Posterior summaries: means, predictive values, marginal density curves."""

import numpy as np
import pytest

import bayonet as bn
from bayonet import GridSpec, expectation, marginal_ml_approx, marginal_sp, predictive_mean
from bayonet.saddle import _saddle_cd

import helpers


@pytest.fixture(scope="module")
def chain(p5_suite):
    return bn.run_gibbs(
        p5_suite["problem"], p5_suite["ml"].x_hat, sweeps=24000, burn_in=4000, seed=909
    )


def test_expectation_zero_for_zero_w():
    prob = bn.PenalizedProblem(c=np.eye(3) * 0.8, w=np.zeros(3), mu=0.2, lam=0.0, tau=60.0)
    sad = bn.solve_saddle(prob, np.zeros(3))
    assert expectation(prob, sad).tolist() == [0.0, 0.0, 0.0]


def sp_mean_one_dim(c, w, mu, tau):
    prob = bn.PenalizedProblem(c=np.array([[c]]), w=np.array([w]), mu=mu, lam=0.0, tau=tau)
    sad = bn.solve_saddle(prob, np.zeros(1), tol=1e-13)
    return expectation(prob, sad)[0]


def test_expectation_matches_exact_one_dim():
    # the leading-order mean carries an O(1/tau) bias; at tau=50 with these
    # parameters that bias is ~5e-3, so the tight comparison needs larger tau
    c, w, mu = 1.0, 0.5, 0.25
    gap_50 = abs(
        sp_mean_one_dim(c, w, mu, 50.0)
        - bn.expectation_exact(bn.OneDimProblem(c=c, w=w, mu=mu, tau=50.0))
    )
    assert 1e-3 < gap_50 < 5e-2
    ref = bn.expectation_exact(bn.OneDimProblem(c=c, w=w, mu=mu, tau=1e4))
    assert sp_mean_one_dim(c, w, mu, 1e4) == pytest.approx(ref, abs=1e-3)


def test_expectation_requires_converged(monkeypatch):
    monkeypatch.setattr(bn.saddle, "_MAX_CYCLES", 1)
    std = helpers.random_standardized(60, 30, 4)
    prob = bn.build_problem(std, 0.05, 0.05, 100.0)
    sad = bn.solve_saddle(prob, np.zeros(4), tol=1e-14)
    with pytest.raises(bn.NotConverged):
        expectation(prob, sad)


def test_predictive_mean_zero_vector():
    std = helpers.random_standardized(61, 30, 3, beta=[0.5, 0.0, 0.0], noise=0.4)
    prob = bn.build_problem(std, 0.05, 0.1, 150.0)
    sad = bn.solve_saddle(prob, bn.solve_ml(prob).x_hat)
    assert predictive_mean(prob, sad, np.zeros(3)) == 0.0


def test_predictive_mean_basis_vector(p5_suite):
    sad = p5_suite["saddle"]
    for j in range(5):
        e = np.zeros(5)
        e[j] = 1.0
        assert predictive_mean(p5_suite["problem"], sad, e) == sad.x_tau[j]


def test_predictive_mean_against_chain(p5_suite, chain):
    rng = np.random.default_rng(62)
    a = rng.standard_normal(5)
    proj = chain.samples @ a
    se = helpers.batch_se(proj)
    est = proj.mean()
    val = predictive_mean(p5_suite["problem"], p5_suite["saddle"], a)
    assert abs(val - est) < 3.0 * se


# ---------------------------------------------------------------------------
# stationary-phase marginal


def test_marginal_inner_solve_free_at_center(p5_suite):
    # fixing a coordinate at its posterior mean leaves the remaining
    # stationary point unchanged, so the warm-started inner solve is free
    prob, sad = p5_suite["problem"], p5_suite["saddle"]
    j = 0
    idx = [k for k in range(5) if k != j]
    c_sub = prob.c[np.ix_(idx, idx)]
    w_eff = prob.w[idx] - sad.x_tau[j] * prob.c[idx, j]
    _, _, cycles, res, ok = _saddle_cd(
        c_sub, w_eff, prob.mu, prob.tau, sad.x_tau[idx], 1e-10
    )
    assert ok
    assert cycles == 0


def test_marginal_inner_solve_budget_raises(p5_suite, monkeypatch):
    # the outer stationary point is already solved; a one-cycle budget for
    # the inner solves must surface as NotConverged naming the coordinate,
    # with no retry from another start
    prob, sad = p5_suite["problem"], p5_suite["saddle"]
    monkeypatch.setattr(bn.saddle, "_MAX_CYCLES", 1)
    with pytest.raises(bn.NotConverged, match=r"marginal coordinate 1, grid value") as info:
        marginal_sp(prob, sad, 1)
    assert info.value.cycles == 1


def test_marginal_matches_two_dim_quadrature():
    cmat = np.array([[0.6, 0.3], [0.3, 0.6]])
    w = np.array([0.3, -0.25])
    mu, tau = 0.1, 100.0
    prob = bn.PenalizedProblem(c=cmat, w=w, mu=mu, lam=0.0, tau=tau)
    sad = bn.solve_saddle(prob, np.zeros(2), tol=1e-12)
    sds = bn.posterior_sd(prob, sad)
    for j in range(2):
        curve = marginal_sp(prob, sad, j)
        ref = helpers.grid_marginal_2d(cmat, w, mu, tau, j, curve.grid)
        scale = ref.max()
        assert np.max(np.abs(curve.density - ref)) / scale < 1e-2
        # mode location agrees with the quadrature marginal exactly; it sits
        # near the mean but not on it, the curve is mildly skew at this tau
        k_sp = int(np.argmax(curve.density))
        k_ref = int(np.argmax(ref))
        dg = curve.grid[1] - curve.grid[0]
        assert abs(curve.grid[k_sp] - curve.grid[k_ref]) <= 2 * dg
        assert abs(curve.grid[k_sp] - sad.x_tau[j]) <= 0.5 * sds[j]


def test_marginal_curves_normalized_and_centered(p5_suite):
    prob, sad = p5_suite["problem"], p5_suite["saddle"]
    sds = bn.posterior_sd(prob, sad)
    for j in range(5):
        curve = marginal_sp(prob, sad, j)
        assert curve.coordinate == j
        assert curve.method == "stationary_phase"
        assert np.trapezoid(curve.density, curve.grid) == pytest.approx(1.0, abs=1e-12)
        mean = np.trapezoid(curve.grid * curve.density, curve.grid)
        assert abs(mean - sad.x_tau[j]) < 0.02 * sds[j]


def test_marginal_gibbs_agreement(p5_suite, chain):
    prob, sad = p5_suite["problem"], p5_suite["saddle"]
    for j in range(5):
        curve = marginal_sp(prob, sad, j)
        ks = helpers.ks_distance(chain.samples[:, j], curve.grid, curve.density)
        assert ks < 0.05


def test_marginal_explicit_grid(p5_suite):
    prob, sad = p5_suite["problem"], p5_suite["saddle"]
    pts = np.linspace(sad.x_tau[0] - 0.01, sad.x_tau[0] + 0.01, 31)
    curve = marginal_sp(prob, sad, 0, grid_spec=GridSpec(points=pts))
    assert curve.grid == pytest.approx(pts)


def test_marginal_rejects_single_point_grid(p5_suite):
    with pytest.raises(bn.GridTooSmall):
        marginal_sp(
            p5_suite["problem"],
            p5_suite["saddle"],
            0,
            grid_spec=GridSpec(points=np.array([0.5])),
        )


def test_marginal_needs_two_coordinates():
    prob = bn.PenalizedProblem(c=np.array([[1.0]]), w=np.array([0.4]), mu=0.1, lam=0.0, tau=50.0)
    sad = bn.solve_saddle(prob, np.zeros(1))
    with pytest.raises(ValueError):
        marginal_sp(prob, sad, 0)


# ---------------------------------------------------------------------------
# sparse-solution approximation to the marginal


def test_ml_curve_agrees_for_far_inactive_coordinate(p5_suite):
    # coordinate 4 is pure noise, far below its activation point
    prob, ml, sad = p5_suite["problem"], p5_suite["ml"], p5_suite["saddle"]
    j = 4
    sp = marginal_sp(prob, sad, j)
    mlc = marginal_ml_approx(prob, ml, j, grid_spec=GridSpec(points=sp.grid))
    assert mlc.method == "ml_approx"
    scale = sp.density.max()
    assert np.max(np.abs(sp.density - mlc.density)) / scale < 0.05


def test_ml_curve_mode_pinned_to_sparse_value(p5_suite):
    prob, ml, sad = p5_suite["problem"], p5_suite["ml"], p5_suite["saddle"]
    j = 0
    mlc = marginal_ml_approx(prob, ml, j)
    k = int(np.argmax(mlc.density))
    dg = mlc.grid[1] - mlc.grid[0]
    assert abs(mlc.grid[k] - ml.x_hat[j]) <= dg
    sp = marginal_sp(prob, sad, j)
    ks = int(np.argmax(sp.density))
    dgs = sp.grid[1] - sp.grid[0]
    assert abs(sp.grid[ks] - sad.x_tau[j]) <= dgs


def test_near_transition_squeeze(near_transition):
    # the coordinate sitting just below activation: the sparse-solution curve
    # is narrower and its mass sits closer to zero than the full curve's
    prob, ml, sad = near_transition["problem"], near_transition["ml"], near_transition["saddle"]
    j = near_transition["coord"]
    assert ml.x_hat[j] == 0.0
    assert sad.x_tau[j] > 0.0
    sp = marginal_sp(prob, sad, j)
    mlc = marginal_ml_approx(prob, ml, j, grid_spec=GridSpec(points=sp.grid))
    m_sp, s_sp = helpers.curve_moments(sp)
    m_ml, s_ml = helpers.curve_moments(mlc)
    assert abs(m_ml) < abs(m_sp)
    assert s_ml < s_sp


def test_posterior_sd_positive_and_consistent():
    c, w, mu, tau = 1.0, 0.5, 0.2, 1000.0
    prob = bn.PenalizedProblem(c=np.array([[c]]), w=np.array([w]), mu=mu, lam=0.0, tau=tau)
    sad = bn.solve_saddle(prob, np.zeros(1), tol=1e-13)
    sd = bn.posterior_sd(prob, sad)[0]
    assert sd > 0.0
    # exact second moment for comparison
    p1 = bn.OneDimProblem(c=c, w=w, mu=mu, tau=tau)
    grid = np.linspace(sad.x_tau[0] - 10 * sd, sad.x_tau[0] + 10 * sd, 8001)
    dens = bn.density_exact(p1, grid)
    m = np.trapezoid(grid * dens, grid)
    v = np.trapezoid((grid - m) ** 2 * dens, grid)
    assert sd == pytest.approx(np.sqrt(v), rel=0.1)


def test_posterior_sd_wide_design_matches_dense_inverse():
    std = helpers.random_standardized(57, 12, 60, beta=[1.0, -0.5] + [0.0] * 58, noise=0.5)
    prob = bn.build_problem(std, 0.1, 0.05, 300.0)
    assert prob.low_rank_factor is not None
    sad = bn.solve_saddle(prob, bn.solve_ml(prob, tol=1e-12).x_hat, tol=1e-12)
    u = sad.u_tau
    d = prob.tau * (prob.mu**2 - u**2) ** 2 / (prob.mu**2 + u**2)
    ref = np.sqrt(np.diagonal(np.linalg.inv(prob.c + np.diag(d))) / (2.0 * prob.tau))
    assert np.max(np.abs(bn.posterior_sd(prob, sad) / ref - 1.0)) < 1e-10
