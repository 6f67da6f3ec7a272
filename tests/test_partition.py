"""Leading-order log-partition value, determinant routes, zero-temperature
limit, observable numerators."""

import math

import numpy as np
import pytest

import bayonet as bn
from bayonet import (
    OneDimProblem,
    log_det_c_plus_d,
    log_partition,
    log_partition_zero_temp,
    log_z_exact,
)

from bayonet.partition import _CPlusD

import helpers


def one_dim_problem(c, w, mu, tau):
    return bn.PenalizedProblem(c=np.array([[c]]), w=np.array([w]), mu=mu, lam=0.0, tau=tau)


def sp_log_z(c, w, mu, tau):
    prob = one_dim_problem(c, w, mu, tau)
    sad = bn.solve_saddle(prob, np.zeros(1), tol=1e-13)
    return log_partition(prob, sad).log_z


def test_one_dim_close_to_exact_at_large_tau():
    tau = 1e4
    val = sp_log_z(1.0, 0.5, 0.5, tau)
    ref = log_z_exact(OneDimProblem(c=1.0, w=0.5, mu=0.5, tau=tau))
    assert abs(val - ref) / tau < 1e-3


def test_free_energy_gap_positive_decreasing():
    c, w, mu = 1.0, 0.5, 0.5
    xh = (w - mu) / c if abs(w) > mu else 0.0
    h_min = c * xh * xh - 2 * w * xh + 2 * mu * abs(xh)
    gaps = [-sp_log_z(c, w, mu, t) / t - h_min for t in (1e2, 1e3, 1e4)]
    assert all(g > 0.0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]


def test_two_dim_identity_design_separates():
    mu, tau = 0.3, 50.0
    prob = bn.PenalizedProblem(c=np.eye(2), w=np.zeros(2), mu=mu, lam=0.0, tau=tau)
    sad = bn.solve_saddle(prob, np.zeros(2), tol=1e-13)
    val = log_partition(prob, sad).log_z
    assert val == pytest.approx(2.0 * sp_log_z(1.0, 0.0, mu, tau), rel=1e-14)


def test_diagonal_design_separates():
    rng = np.random.default_rng(40)
    cs = rng.uniform(0.5, 2.0, size=3)
    ws = rng.uniform(-0.6, 0.6, size=3)
    mu, tau = 0.2, 300.0
    prob = bn.PenalizedProblem(c=np.diag(cs), w=ws, mu=mu, lam=0.0, tau=tau)
    sad = bn.solve_saddle(prob, np.zeros(3), tol=1e-13)
    total = log_partition(prob, sad).log_z
    parts = sum(sp_log_z(float(c), float(w), mu, tau) for c, w in zip(cs, ws))
    assert total == pytest.approx(parts, abs=1e-9)


def test_decomposition_recombines_bit_exactly():
    std = helpers.random_standardized(41, 40, 4, beta=[0.8, 0.0, -0.4, 0.0], noise=0.5)
    prob = bn.build_problem(std, 0.05, 0.1, 500.0)
    sad = bn.solve_saddle(prob, bn.solve_ml(prob).x_hat, tol=1e-12)
    lp = log_partition(prob, sad)
    assert lp.log_z == lp.exp_term + lp.log_det_term + lp.prefactor_term


def test_d_tau_formula():
    std = helpers.random_standardized(42, 30, 3, beta=[0.6, 0.0, 0.0], noise=0.5)
    prob = bn.build_problem(std, 0.05, 0.1, 200.0)
    sad = bn.solve_saddle(prob, bn.solve_ml(prob).x_hat, tol=1e-12)
    lp = log_partition(prob, sad)
    u = sad.u_tau
    ref = prob.tau * (prob.mu**2 - u**2) ** 2 / (prob.mu**2 + u**2)
    assert lp.d_tau == pytest.approx(ref, rel=1e-14)


def test_tau_mismatch_rejected():
    std = helpers.random_standardized(43, 30, 3)
    prob = bn.build_problem(std, 0.05, 0.1, 100.0)
    sad = bn.solve_saddle(prob, np.zeros(3), tol=1e-11)
    with pytest.raises(ValueError):
        log_partition(prob.with_tau(200.0), sad)


def test_unconverged_saddle_rejected(monkeypatch):
    monkeypatch.setattr(bn.saddle, "_MAX_CYCLES", 1)
    std = helpers.random_standardized(44, 30, 5)
    prob = bn.build_problem(std, 0.05, 0.05, 100.0)
    sad = bn.solve_saddle(prob, np.zeros(5), tol=1e-14)
    assert not sad.converged
    with pytest.raises(bn.NotConverged):
        log_partition(prob, sad)


# ---------------------------------------------------------------------------
# determinant routes


def test_log_det_null_design():
    lam = 0.4
    n, p = 6, 3
    d = np.array([0.3, 0.0, 2.0])
    ref = float(np.sum(np.log(d + lam)))
    for method in ("direct", "lowrank"):
        factor = _CPlusD(lam * np.eye(p), d, lam, np.zeros((n, p)), method)
        assert factor.log_det() == pytest.approx(ref, rel=1e-14)


def test_log_det_zero_d_is_det_c():
    std = helpers.random_standardized(45, 20, 4)
    prob = bn.build_problem(std, 0.2, 0.1, 1.0)
    ref = float(np.linalg.slogdet(prob.c)[1])
    assert log_det_c_plus_d(prob, np.zeros(4)) == pytest.approx(ref, rel=1e-12)


def test_log_det_dual_routes_agree_wide_design():
    rng = np.random.default_rng(46)
    for k in range(5):
        std = helpers.random_standardized(500 + k, 10, 50)
        prob = bn.build_problem(std, 0.1, 0.1, 1.0)
        d = rng.uniform(0.0, 5.0, size=50)
        direct = log_det_c_plus_d(prob, d, method="direct")
        lowrank = log_det_c_plus_d(prob, d, method="lowrank")
        assert abs(direct - lowrank) / abs(direct) < 1e-8
        # auto must take the n-dimensional route here and agree with it
        assert log_det_c_plus_d(prob, d) == lowrank


def test_factor_routes_agree_wide_design():
    std = helpers.random_standardized(55, 12, 60)
    prob = bn.build_problem(std, 0.1, 0.1, 1.0)
    rng = np.random.default_rng(56)
    e = rng.uniform(0.0, 5.0, size=60)
    rhs = rng.standard_normal(60)
    direct = _CPlusD(prob.c, e, prob.lam, prob.low_rank_factor, "direct")
    lowrank = _CPlusD(prob.c, e, prob.lam, prob.low_rank_factor, "lowrank")
    auto = _CPlusD(prob.c, e, prob.lam, prob.low_rank_factor)
    assert auto.log_det() == lowrank.log_det()
    x_ref = direct.solve(rhs)
    assert np.max(np.abs(lowrank.solve(rhs) - x_ref)) / np.max(np.abs(x_ref)) < 1e-10
    assert abs(lowrank.log_det() - direct.log_det()) / abs(direct.log_det()) < 1e-10
    inv_ref = np.diagonal(np.linalg.inv(prob.c + np.diag(e)))
    assert np.max(np.abs(direct.inv_diag() / inv_ref - 1.0)) < 1e-10
    assert np.max(np.abs(lowrank.inv_diag() / inv_ref - 1.0)) < 1e-10


def test_log_det_validation():
    std = helpers.random_standardized(47, 20, 3)
    prob = bn.build_problem(std, 0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        log_det_c_plus_d(prob, np.zeros(2))
    with pytest.raises(ValueError):
        log_det_c_plus_d(prob, np.array([-0.1, 0.0, 0.0]))
    with pytest.raises(ValueError):
        log_det_c_plus_d(prob, np.zeros(3), method="magic")


# ---------------------------------------------------------------------------
# observable numerator


def test_numerator_ratio_recovers_mean_coordinate():
    std = helpers.random_standardized(49, 50, 3, beta=[0.9, -0.3, 0.0], noise=0.4)
    prob = bn.build_problem(std, 0.05, 0.08, 200.0)
    sad = bn.solve_saddle(prob, bn.solve_ml(prob).x_hat, tol=1e-13)
    # at leading order a factor q in the integrand adds log q(x_tau) to log Z,
    # so Z[q] / Z = q(x_tau); both forms of the numerator whose ratio is the
    # mean of coordinate j must give x_tau[j] there
    j = 0
    q_resolvent = float(np.linalg.solve(prob.c, prob.w - sad.u_tau)[j])
    q_rational = float(sad.u_tau[j] / (prob.tau * (prob.mu**2 - sad.u_tau[j] ** 2)))
    assert q_resolvent == pytest.approx(sad.x_tau[j], rel=1e-12)
    assert q_resolvent == pytest.approx(q_rational, rel=1e-8)


# ---------------------------------------------------------------------------
# zero-temperature limit


def test_zero_temp_all_inactive_closed_form():
    std = helpers.random_standardized(51, 40, 3)
    base = bn.build_problem(std, 0.1, 0.1, 1.0)
    mu = 1.3 * float(np.abs(base.w).max())
    tau = 1e5
    prob = base.with_mu(mu).with_tau(tau)
    ml = bn.solve_ml(prob, tol=1e-12)
    assert ml.active_set == ()
    val = log_partition_zero_temp(prob, ml)
    ref = -3.0 * math.log(tau) + float(
        np.sum(np.log(mu / (mu**2 - prob.w**2)))
    )
    assert val == pytest.approx(ref, rel=1e-12)


def test_zero_temp_one_dim_free_energy():
    c, w, mu, tau = 1.0, 0.5, 0.1, 1e6
    prob = one_dim_problem(c, w, mu, tau)
    ml = bn.solve_ml(prob, tol=1e-13)
    val = log_partition_zero_temp(prob, ml)
    assert abs(-val / tau - ml.h_min) < 1e-4


def test_zero_temp_meets_leading_order_when_inactive():
    # on all-inactive instances both approximations have the same constant,
    # so their difference at very large tau is O(1/tau)
    for seed in (52, 53, 54):
        std = helpers.random_standardized(seed, 40, 3)
        base = bn.build_problem(std, 0.1, 0.1, 1.0)
        mu = 1.5 * float(np.abs(base.w).max())
        prob = base.with_mu(mu).with_tau(1e8)
        ml = bn.solve_ml(prob, tol=1e-12)
        sad = bn.solve_saddle(prob, ml.x_hat, tol=1e-12)
        lp = log_partition(prob, sad)
        lz0 = log_partition_zero_temp(prob, ml)
        assert abs(lp.log_z - lz0) < 0.1


def test_zero_temp_transition_detected(near_transition):
    # at the exact activation point the formula's active/inactive split is
    # ill-posed and must be refused
    prob = near_transition["problem"].with_mu(near_transition["mu_critical"])
    ml = bn.solve_ml(prob, tol=1e-12)
    with pytest.raises(bn.TransitionValue) as exc:
        log_partition_zero_temp(prob, ml)
    assert exc.value.coordinate == near_transition["coord"]
