"""Dataset standardization, problem assembly, cost evaluation, CSV parsing."""

import math

import numpy as np
import pytest

import bayonet as bn

import helpers


def test_standardize_columns_satisfy_invariants():
    std = helpers.random_standardized(0, 37, 4)
    n = std.n
    for col in range(std.p):
        assert abs(std.predictors[:, col].sum()) < 1e-10
        assert abs((std.predictors[:, col] ** 2).sum() - n) < 1e-8
    assert abs(std.responses.sum()) < 1e-10
    assert abs((std.responses**2).sum() - n) < 1e-8


def test_standardize_idempotent():
    std = helpers.random_standardized(1, 25, 3)
    again = bn.standardize(bn.Dataset(responses=std.responses, predictors=std.predictors))
    assert np.max(np.abs(again.predictors - std.predictors)) < 1e-12
    assert np.max(np.abs(again.responses - std.responses)) < 1e-12


def test_standardize_three_point_column():
    a = np.array([[1.0, 5.0], [2.0, -1.0], [3.0, 2.5]])
    y = np.array([0.3, -0.2, 0.9])
    std = bn.standardize(bn.Dataset(responses=y, predictors=a))
    r = math.sqrt(1.5)
    assert std.predictors[:, 0] == pytest.approx([-r, 0.0, r], abs=1e-14)


def test_standardize_records_affine_maps():
    rng = np.random.default_rng(5)
    a = 3.0 + 2.0 * rng.standard_normal((30, 2))
    y = -1.0 + 0.5 * rng.standard_normal(30)
    std = bn.standardize(bn.Dataset(responses=y, predictors=a))
    back = bn.apply_standardization(a, std.predictor_offset, std.predictor_scale)
    assert np.max(np.abs(back - std.predictors)) < 1e-12


def test_standardize_diabetes_all_columns(diabetes):
    if diabetes is None:
        pytest.skip("bundled benchmark dataset unavailable")
    std = bn.standardize(diabetes)
    n = std.n
    assert (std.n, std.p) == (442, 10)
    cols = [std.predictors[:, j] for j in range(std.p)] + [std.responses]
    for col in cols:
        assert abs(col.sum()) < 1e-8
        assert abs((col**2).sum() - n) < 1e-6


def test_standardize_zero_variance_column():
    a = np.column_stack([np.ones(10), np.arange(10.0)])
    y = np.arange(10.0)
    with pytest.raises(bn.ZeroVarianceColumn) as exc:
        bn.standardize(bn.Dataset(responses=y, predictors=a))
    assert exc.value.column == 0


def test_standardize_constant_response():
    a = np.arange(20.0).reshape(10, 2)
    with pytest.raises(bn.ZeroVarianceColumn):
        bn.standardize(bn.Dataset(responses=np.ones(10), predictors=a))


# ---------------------------------------------------------------------------
# problem assembly


def test_build_problem_matrices():
    std = helpers.random_standardized(2, 10, 3)
    lam = 0.1
    prob = bn.build_problem(std, lam, 0.2, 1.0)
    n = std.n
    c_ref = std.predictors.T @ std.predictors / (2 * n) + lam * np.eye(3)
    w_ref = std.predictors.T @ std.responses / (2 * n)
    assert np.max(np.abs(prob.c - c_ref)) < 1e-12
    assert np.max(np.abs(prob.w - w_ref)) < 1e-12


def test_build_problem_diagonal_constant():
    std = helpers.random_standardized(3, 50, 6)
    lam = 0.37
    prob = bn.build_problem(std, lam, 0.1, 1.0)
    assert np.diag(prob.c) == pytest.approx(np.full(6, 0.5 + lam), abs=1e-12)


def test_null_design_matrices_accepted():
    # a zero design cannot pass standardization, so the degenerate C = lam*I,
    # w = 0 model enters through the matrix-level constructor instead
    lam = 0.3
    prob = bn.PenalizedProblem(c=lam * np.eye(3), w=np.zeros(3), mu=0.1, lam=lam, tau=1.0)
    x = np.array([0.5, -1.0, 0.0])
    assert bn.cost_h(prob, x) == pytest.approx(lam * np.dot(x, x) + 2 * 0.1 * np.abs(x).sum())


def test_build_problem_lasso_needs_enough_rows():
    std = helpers.random_standardized(4, 5, 8)
    with pytest.raises(bn.SingularC):
        bn.build_problem(std, 0.0, 0.1, 1.0)


def test_build_problem_keeps_low_rank_factor():
    std = helpers.random_standardized(6, 10, 50)
    prob = bn.build_problem(std, 0.1, 0.2, 1.0)
    assert prob.low_rank_factor is not None
    assert prob.low_rank_factor.shape == (10, 50)
    small = helpers.random_standardized(7, 50, 10)
    assert bn.build_problem(small, 0.1, 0.2, 1.0).low_rank_factor is None


def test_with_tau_and_mu_share_data_and_check_the_scalar():
    std = helpers.random_standardized(9, 10, 30)
    prob = bn.build_problem(std, 0.1, 0.2, 1.0)
    for other in (prob.with_tau(7.0), prob.with_mu(0.05)):
        assert other.c is prob.c
        assert other.w is prob.w
        assert other.low_rank_factor is prob.low_rank_factor
    assert (prob.with_tau(7.0).tau, prob.with_mu(0.05).mu) == (7.0, 0.05)
    assert (prob.tau, prob.mu) == (1.0, 0.2)
    with pytest.raises(ValueError):
        prob.with_tau(0.0)
    with pytest.raises(ValueError):
        prob.with_mu(-1.0)


def test_low_rank_factor_is_not_a_constructor_argument():
    # a caller's factor need not be the one C was built from, and the
    # low-rank route would then factor the wrong C + D
    factor = np.random.default_rng(10).standard_normal((3, 10))
    with pytest.raises(TypeError):
        bn.PenalizedProblem(
            c=np.eye(10), w=np.full(10, 0.1), mu=0.1, lam=0.1, tau=50.0,
            low_rank_factor=factor,
        )
    assert bn.PenalizedProblem(
        c=np.eye(10), w=np.full(10, 0.1), mu=0.1, lam=0.1, tau=50.0
    ).low_rank_factor is None


_INF = float("inf")


@pytest.mark.parametrize("make", [
    lambda prob: bn.PenalizedProblem(c=prob.c, w=prob.w, mu=_INF, lam=0.1, tau=1.0),
    lambda prob: bn.PenalizedProblem(c=prob.c, w=prob.w, mu=0.2, lam=0.1, tau=_INF),
    lambda prob: prob.with_tau(_INF),
    lambda prob: prob.with_mu(_INF),
    lambda prob: bn.solve_ml(prob, tol=_INF),
    lambda prob: bn.solve_saddle(prob, np.zeros(prob.p), tol=_INF),
    lambda prob: bn.tau_path(prob, [10.0, 1.0], tol=_INF),
], ids=["problem-mu", "problem-tau", "with_tau", "with_mu", "solve_ml-tol",
        "solve_saddle-tol", "tau_path-tol"])
def test_non_finite_scalars_rejected(make):
    prob = bn.build_problem(helpers.random_standardized(11, 40, 4), 0.1, 0.2, 1.0)
    with pytest.raises(ValueError, match="finite"):
        make(prob)


def test_build_problem_requires_standardized():
    rng = np.random.default_rng(8)
    raw = bn.Dataset(responses=rng.standard_normal(10), predictors=rng.standard_normal((10, 2)))
    with pytest.raises(ValueError):
        bn.build_problem(raw, 0.1, 0.1, 1.0)


# ---------------------------------------------------------------------------
# cost function


def test_cost_zero_vector():
    std = helpers.random_standardized(9, 20, 3)
    prob = bn.build_problem(std, 0.1, 0.3, 1.0)
    assert bn.cost_h(prob, np.zeros(3)) == 0.0


def test_cost_hand_value():
    prob = bn.PenalizedProblem(c=np.array([[1.0]]), w=np.array([0.5]), mu=0.1, lam=0.0, tau=1.0)
    assert bn.cost_h(prob, np.array([0.4])) == pytest.approx(-0.16, abs=1e-15)


def test_cost_minimized_at_ml_solution():
    std = helpers.random_standardized(10, 40, 4, beta=[1.0, -0.5, 0.0, 0.2], noise=0.3)
    prob = bn.build_problem(std, 0.05, 0.1, 1.0)
    ml = bn.solve_ml(prob)
    rng = np.random.default_rng(11)
    h0 = bn.cost_h(prob, ml.x_hat)
    for _ in range(100):
        x = ml.x_hat + rng.uniform(-1e-3, 1e-3, size=4)
        assert bn.cost_h(prob, x) >= h0 - 1e-15


def test_cost_convexity():
    std = helpers.random_standardized(12, 30, 5)
    prob = bn.build_problem(std, 0.1, 0.2, 1.0)
    rng = np.random.default_rng(13)
    for _ in range(50):
        x1 = rng.standard_normal(5)
        x2 = rng.standard_normal(5)
        t = rng.uniform()
        lhs = bn.cost_h(prob, t * x1 + (1 - t) * x2)
        rhs = t * bn.cost_h(prob, x1) + (1 - t) * bn.cost_h(prob, x2)
        assert lhs <= rhs + 1e-10


def test_cost_equals_residual_form():
    std = helpers.random_standardized(14, 25, 3, beta=[0.5, 0.0, -0.8], noise=0.5)
    lam, mu = 0.07, 0.15
    prob = bn.build_problem(std, lam, mu, 1.0)
    rng = np.random.default_rng(15)
    n = std.n
    a, y = std.predictors, std.responses
    for _ in range(20):
        x = rng.standard_normal(3)
        direct = (
            np.sum((y - a @ x) ** 2) / (2 * n)
            + lam * np.dot(x, x)
            + 2 * mu * np.abs(x).sum()
            - np.dot(y, y) / (2 * n)
        )
        assert bn.cost_h(prob, x) == pytest.approx(direct, abs=1e-10)


def test_cost_dimension_mismatch():
    std = helpers.random_standardized(16, 20, 3)
    prob = bn.build_problem(std, 0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        bn.cost_h(prob, np.zeros(4))


# ---------------------------------------------------------------------------
# CSV ingestion


def test_load_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    a = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    f = tmp_path / "d.csv"
    helpers.write_csv(f, ["g1", "g2"], a, y)
    data, names = bn.load_csv(f, "y")
    assert names == ["g1", "g2"]
    assert np.max(np.abs(data.predictors - a)) < 1e-15
    assert np.max(np.abs(data.responses - y)) < 1e-15
    assert not data.standardized


def test_load_csv_response_position_free(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("y,g1\n1.0,2.0\n3.0,4.0\n")
    data, names = bn.load_csv(f, "y")
    assert names == ["g1"]
    assert data.responses.tolist() == [1.0, 3.0]
    assert data.predictors[:, 0].tolist() == [2.0, 4.0]


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("g1,y\n1.0,2.0\n3.0\n", "line 3"),
        ("g1,y\n1.0,two\n", "line 2"),
        ("g1,y\n1.0,nan\n2.0,3.0\n", "line 2"),
        ("g1,y\n1.0,2.0\ninf,3.0\n", "line 3"),
        ("g1,y\n1.0,2.0\n2.0,3.0\n4.0,-inf\n", "line 4"),
        ("g1,g1,y\n1.0,2.0,3.0\n", "duplicate"),
        ("g1,g2\n1.0,2.0\n", "response"),
    ],
)
def test_load_csv_diagnostics(tmp_path, body, fragment):
    f = tmp_path / "bad.csv"
    f.write_text(body)
    with pytest.raises(bn.ParseError) as exc:
        bn.load_csv(f, "y")
    assert fragment in str(exc.value)
