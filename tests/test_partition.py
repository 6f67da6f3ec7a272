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

from bayonet.partition import _CPlusD, _core

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
    # a stationary point solved at another mu gave a wrong log Z without a
    # word
    with pytest.raises(ValueError, match="different mu"):
        log_partition(prob.with_mu(0.05), sad)
    assert sad.mu == prob.mu


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
    prob = bn.PenalizedProblem(c=lam * np.eye(p), w=np.zeros(p), mu=1.0, lam=lam, tau=1.0)
    prob = prob._replace(low_rank_factor=np.zeros((n, p)))
    for problem in (prob._replace(low_rank_factor=None), prob):
        factor = _CPlusD(problem, d)
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
    direct = _CPlusD(prob._replace(c=prob.c, low_rank_factor=None), e)
    lowrank = _CPlusD(prob, e)
    assert lowrank._dp is not None
    x_ref = direct.solve(rhs)
    assert np.max(np.abs(lowrank.solve(rhs) - x_ref)) / np.max(np.abs(x_ref)) < 1e-10
    assert abs(lowrank.log_det() - direct.log_det()) / abs(direct.log_det()) < 1e-10
    inv_ref = np.diagonal(np.linalg.inv(prob.c + np.diag(e)))
    assert np.max(np.abs(direct.inv_diag() / inv_ref - 1.0)) < 1e-10
    assert np.max(np.abs(lowrank.inv_diag() / inv_ref - 1.0)) < 1e-10
    # the low-rank factor keeps no n x p array of its own: the design it
    # reads is the problem's
    n, p = prob.low_rank_factor.shape
    big = [v for v in vars(lowrank).values() if np.ndim(v) and np.size(v) >= n * p]
    assert len(big) == 1 and big[0] is prob.low_rank_factor


@pytest.mark.parametrize("wide", [False, True], ids=["direct", "lowrank"])
def test_inverse_diagonal_refuses_a_zero_pivot(wide):
    # dpotri reports a zero on the factor's diagonal; _cholesky never leaves
    # one, so it is planted, on either route
    std = helpers.random_standardized(55, 12, 60 if wide else 8)
    prob = bn.build_problem(std, 0.1, 0.1, 1.0)
    factor = _CPlusD(prob, np.ones(prob.p))
    assert (factor._dp is not None) == wide
    factor._chol[3, 3] = 0.0
    with pytest.raises(bn.SingularMatrix, match="dpotri info=4"):
        factor.inv_diag()


def test_core_refuses_an_overflowing_exponential_term():
    # tau (w - u)'x past the largest float: NumericalOverflow before any
    # factor is built
    std = helpers.random_standardized(44, 30, 5)
    prob = bn.build_problem(std, 0.05, 0.05, 1e300)
    x = np.full(5, 1e300)
    with pytest.raises(bn.NumericalOverflow, match="exponential term is"):
        _core(prob, x, np.zeros(5))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_factor_rejects_non_finite_input(bad):
    # LAPACK runs without scipy's finiteness scan; a NaN or inf in C, e or
    # the design factor must still end in SingularMatrix, never a NaN
    std = helpers.random_standardized(57, 8, 20)
    prob = bn.build_problem(std, 0.1, 0.1, 1.0)
    e = np.full(20, 0.5)
    e_bad = e.copy()
    e_bad[7] = bad
    c_bad = prob.c.copy()
    c_bad[3, 5] = c_bad[5, 3] = bad
    f_bad = prob.low_rank_factor.copy()
    f_bad[2, 4] = bad
    for problem in (prob._replace(c=prob.c, low_rank_factor=None), prob):
        with pytest.raises(bn.SingularMatrix):
            _CPlusD(problem, e_bad)
    with pytest.raises(bn.SingularMatrix):
        _CPlusD(prob._replace(c=c_bad, low_rank_factor=None), e)
    with pytest.raises(bn.SingularMatrix):
        _CPlusD(prob._replace(low_rank_factor=f_bad), e)


@pytest.mark.parametrize(
    "lanes,batch_raises",
    [pytest.param(k, False, id=str(k)) for k in (12, 3, 2, 1)]
    + [pytest.param(12, True, id="12-batch-raises")],
)
def test_stacked_solve_matches_one_factor_per_row(lanes, batch_raises, monkeypatch):
    # a stack of C + diag(e_k) solved at once solves every row as its own
    # factor does; a row whose e is not finite or has a negative entry (NaN,
    # inf, -1e3) is flagged, the others still solved, and rows not asked
    # for stay as they were.  From 2 rows on the rows are one batched
    # solve; a single row, or every row once that solve raises, has its own
    # factor, so its result is exactly the factor's.
    std = helpers.random_standardized(58, 40, 6)
    prob = bn.build_problem(std, 0.1, 0.1, 1.0)
    rng = np.random.default_rng(59)
    e = rng.uniform(0.0, 5.0, size=(lanes, 6))
    rhs = rng.standard_normal((lanes, 6))
    refs = np.array([_CPlusD(prob, row).solve(b) for row, b in zip(e, rhs)])
    solve_, batches = np.linalg.solve, []

    def solve(a, b):
        batches.append(a.shape[0])
        if batch_raises:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve_(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    x, ok = rhs.copy(), np.ones(lanes, dtype=bool)
    _CPlusD.solve_stack(prob, e, x, ok)
    assert batches == ([lanes] if lanes > 1 else [])
    assert ok.all()
    assert np.max(np.abs(x - refs)) < 1e-13
    if lanes == 1 or batch_raises:
        assert np.array_equal(x, refs)
    if lanes == 1:
        return
    bad = e.copy()
    for k, j, v in zip(range(lanes), (1, 2, 3), (math.nan, math.inf, -1e3)):
        bad[k, j] = v
    asked = np.arange(lanes) != 4
    x, ok = rhs.copy(), asked.copy()
    _CPlusD.solve_stack(prob, bad, x, ok)
    assert np.array_equal(ok, asked & (np.arange(lanes) > 2))
    assert np.abs(x[ok] - refs[ok]).max(initial=0.0) < 1e-13
    if batch_raises:
        assert np.array_equal(x[ok], refs[ok])
    assert lanes < 5 or np.array_equal(x[4], rhs[4])


def test_log_det_validation():
    std = helpers.random_standardized(47, 20, 3)
    prob = bn.build_problem(std, 0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        log_det_c_plus_d(prob, np.zeros(2))
    with pytest.raises(ValueError):
        log_det_c_plus_d(prob, np.array([-0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        log_det_c_plus_d(prob, np.zeros(3), method="magic")
    with pytest.raises(ValueError, match="needs the design factor"):
        log_det_c_plus_d(prob, np.zeros(3), method="lowrank")


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


def test_zero_temp_refuses_an_unconverged_ml_solution(monkeypatch):
    monkeypatch.setattr(bn.mlfit, "_MAX_CYCLES", 1)
    std = helpers.random_standardized(44, 30, 5)
    prob = bn.build_problem(std, 0.05, 0.05, 100.0)
    ml = bn.solve_ml(prob, tol=1e-14)
    assert not ml.converged
    with pytest.raises(bn.NotConverged, match="ML solution not converged"):
        log_partition_zero_temp(prob, ml)


def test_zero_temp_transition_detected(near_transition):
    # at the exact activation point the formula's active/inactive split is
    # ill-posed and must be refused
    prob = near_transition["problem"].with_mu(near_transition["mu_critical"])
    ml = bn.solve_ml(prob, tol=1e-12)
    with pytest.raises(bn.TransitionValue) as exc:
        log_partition_zero_temp(prob, ml)
    assert exc.value.coordinate == near_transition["coord"]
