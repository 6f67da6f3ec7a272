"""Dataset standardization, problem assembly, cost evaluation, CSV parsing."""

import csv
import math
import warnings

import numpy as np
import pytest

import bayonet as bn
from bayonet.data import _loadtxt_table, _rows_table

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


@pytest.mark.parametrize("raw", [
    pytest.param(lambda: bn.Dataset(
        responses=np.random.default_rng(0).standard_normal(20_000),
        predictors=np.random.default_rng(1).standard_normal((20_000, 10)),
    ), id="20000x10"),
    pytest.param(helpers.latitude_dataset, id="latitude"),
    pytest.param(lambda: helpers.latitude_dataset(p=3, center=1e6, spread=1.0),
                 id="offset-1e6"),
])
def test_standardize_accepts_its_own_output(raw):
    # the rounding of a column's sum of n unit-scale terms grows with n, and
    # centering a column far from zero leaves eps * |mean| / sd in each entry:
    # both exceeded an absolute 1e-10 and refused standardize's own output.
    # At 1e6 sds from zero one-pass centering still failed the relative check
    std = bn.standardize(raw())
    assert std.standardized


def test_standardized_check_names_the_column():
    std = helpers.random_standardized(14, 30, 3)
    with pytest.raises(ValueError, match="predictor 1 fails the check"):
        bn.Dataset(responses=std.responses, predictors=std.predictors * [1.0, 1.1, 1.0],
                   standardized=True)
    with pytest.raises(ValueError, match="response fails the check"):
        bn.Dataset(responses=std.responses + 0.01, predictors=std.predictors,
                   standardized=True)


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
    with pytest.raises(bn.SingularMatrix):
        bn.build_problem(std, 0.0, 0.1, 1.0)


def test_build_problem_keeps_low_rank_factor():
    std = helpers.random_standardized(6, 10, 50)
    prob = bn.build_problem(std, 0.1, 0.2, 1.0)
    assert prob.low_rank_factor is not None
    assert prob.low_rank_factor.shape == (10, 50)
    small = helpers.random_standardized(7, 50, 10)
    assert bn.build_problem(small, 0.1, 0.2, 1.0).low_rank_factor is None


def test_restrict_keeps_the_factor_only_while_wide():
    # the factor's presence is the determinant route, so a restriction
    # that is no longer wider than n must drop it
    std = helpers.random_standardized(8, 10, 14)
    prob = bn.build_problem(std, 0.1, 0.2, 1.0)
    for size in (14, 11, 10, 3):
        idx = np.arange(size)[::-1]
        sub = prob._restrict(idx)
        # built from the design columns, not sliced from the p x p C: equal
        # up to the rounding of the Gram product
        assert np.max(np.abs(sub.c - prob.c[np.ix_(idx, idx)])) < 1e-15
        assert np.array_equal(sub.w, prob.w[idx])
        if size > 10:
            assert np.array_equal(sub.low_rank_factor, prob.low_rank_factor[:, idx])
        else:
            assert sub.low_rank_factor is None


def test_wide_problem_builds_c_on_every_read():
    std = helpers.random_standardized(12, 10, 30)
    prob = bn.build_problem(std, 0.1, 0.2, 50.0)
    assert "c" not in vars(prob)
    other = prob.with_tau(7.0)
    a = std.predictors
    # the bytes of the expression the dense route assembles C by
    assert np.array_equal(prob.c, a.T @ a / (2.0 * 10) + 0.1 * np.eye(30))
    assert np.array_equal(other.c, prob.c)
    assert not prob.c.flags.writeable
    d = np.random.default_rng(13).uniform(0.0, 3.0, 30)
    direct = bn.log_det_c_plus_d(prob, d, method="direct")
    assert direct == pytest.approx(bn.log_det_c_plus_d(prob, d), rel=1e-12)
    # the sampler reads C itself, so its chain is the dense twin's
    dense = bn.PenalizedProblem(c=prob.c, w=prob.w, mu=0.2, lam=0.1, tau=50.0)
    chains = [bn.run_gibbs(q, np.zeros(30), 40, seed=3).samples for q in (prob, dense)]
    assert np.array_equal(*chains)


def test_wide_problem_repr_builds_no_c(monkeypatch):
    # the generated repr read c, building a p x p matrix to print it
    def refuse(self):
        raise AssertionError("the p x p C was built")

    monkeypatch.setattr(bn.PenalizedProblem, "_dense_c", refuse)
    prob = bn.build_problem(helpers.random_standardized(1, 50, 3000), 0.1, 0.1, 10.0)
    assert "mu=0.1" in repr(prob)
    assert "c" not in vars(prob)


def test_wide_problem_and_its_copies_never_hold_c():
    # a copy is its source's fields with some swapped, so C must never be
    # stored where a copy with a new design would inherit it: read C, then
    # restrict to columns still wider than n, and the copy reads its own
    std = helpers.random_standardized(10, 10, 30)
    prob = bn.build_problem(std, 0.1, 0.2, 1.0)
    full = prob.c
    idx = np.arange(25)[::-1]
    for q in (prob, prob.with_tau(3.0), prob.with_mu(0.05), prob._restrict(idx)):
        assert q.c.shape == (q.p, q.p) and "c" not in vars(q)
    sub = prob._restrict(idx)
    assert sub.low_rank_factor is not None and sub.c.shape == (25, 25)
    assert np.max(np.abs(sub.c - full[np.ix_(idx, idx)])) < 1e-15


def test_problem_equality_is_identity(monkeypatch):
    # the generated == compared the array fields: two problems built from
    # one dataset raised, and a wide problem's == built its p x p C
    def refuse(self):
        raise AssertionError("the p x p C was built")

    monkeypatch.setattr(bn.PenalizedProblem, "_dense_c", refuse)
    for p in (5, 3000):
        std = helpers.random_standardized(1, 50, p)
        a, b = (bn.build_problem(std, 0.1, 0.1, 10.0) for _ in range(2))
        assert a == a and a != b and a != a.with_tau(10.0)
        assert len({a, b}) == 2


def test_wide_accessors_match_the_dense_matrix():
    std = helpers.random_standardized(14, 12, 40)
    wide = bn.build_problem(std, 0.3, 0.2, 1.0)
    dense = bn.PenalizedProblem(c=wide.c, w=wide.w, mu=0.2, lam=0.3, tau=1.0)
    rng = np.random.default_rng(15)
    x = rng.standard_normal(40)
    idx = np.array([3, 17, 29])
    for got, want in (
        (wide._diag, dense._diag),
        (wide._matvec(x), dense._matvec(x)),
        (wide._col(5), dense._col(5)),
        (wide._block(idx), dense._block(idx)),
        (wide._quad(x), dense._quad(x)),
    ):
        assert np.max(np.abs(got - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))
    assert bn.cost_h(wide, x) == pytest.approx(bn.cost_h(dense, x), rel=1e-14)


def test_wide_singular_check_is_analytic():
    # every Cholesky pivot^2 of C is at least lam; below the dense check's
    # pivot-ratio floor relative to max_j C_jj = 0.5 + lam, refused
    std = helpers.random_standardized(16, 10, 30)
    assert bn.build_problem(std, 1e-12, 0.2, 1.0).low_rank_factor is not None
    with pytest.raises(bn.SingularMatrix):
        bn.build_problem(std, 4e-13, 0.2, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            bn.build_problem(std, bad, 0.2, 1.0)


def test_with_tau_and_mu_share_data_and_check_the_scalar():
    std = helpers.random_standardized(9, 10, 30)
    prob = bn.build_problem(std, 0.1, 0.2, 1.0)
    for other in (prob.with_tau(7.0), prob.with_mu(0.05)):
        assert np.array_equal(other.c, prob.c)
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
    lambda prob: bn.PenalizedProblem(c=prob.c, w=prob.w, mu=0.2, lam=math.nan, tau=1.0),
    lambda prob: bn.PenalizedProblem(c=prob.c, w=prob.w, mu=0.2, lam=_INF, tau=1.0),
    lambda prob: bn.build_problem(helpers.random_standardized(11, 40, 4), 0.1, _INF, 1.0),
    lambda prob: bn.build_problem(helpers.random_standardized(11, 40, 4), 0.1, 0.2, math.nan),
    lambda prob: bn.build_problem(helpers.random_standardized(11, 40, 4), _INF, 0.2, 1.0),
    lambda prob: bn.HyperGrid(mus=[0.2, 0.1], taus=[10.0, _INF], lam=0.1),
    lambda prob: bn.HyperGrid(mus=[], taus=[10.0, 100.0], lam=0.1),
], ids=["problem-mu", "problem-tau", "with_tau", "with_mu", "solve_ml-tol",
        "solve_saddle-tol", "tau_path-tol", "problem-lam-nan", "problem-lam-inf",
        "build-mu", "build-tau", "build-lam-narrow", "grid-taus", "grid-empty"])
def test_non_finite_scalars_rejected(make):
    # a lam of inf on a narrow design is refused by name before C is formed,
    # not as the non-finite C it would make
    prob = bn.build_problem(helpers.random_standardized(11, 40, 4), 0.1, 0.2, 1.0)
    with pytest.raises(ValueError, match=r"must be (positive|nonnegative) and finite$|is empty$"):
        make(prob)


@pytest.mark.parametrize("fields,message", [
    (dict(responses=np.zeros((3, 1)), predictors=np.zeros((3, 2))),
     "responses must be 1-D, predictors 2-D"),
    (dict(responses=np.zeros(3), predictors=np.zeros(3)),
     "responses must be 1-D, predictors 2-D"),
    (dict(responses=np.zeros(4), predictors=np.zeros((3, 2))),
     "responses and predictors disagree on n"),
    (dict(responses=np.zeros(1), predictors=np.zeros((1, 2))),
     "need n >= 2 samples and p >= 1 predictors"),
    (dict(responses=[0.0, math.nan, 1.0], predictors=np.zeros((3, 2))),
     "non-finite values in data"),
    (dict(responses=np.zeros(3), predictors=[[0.0, 1.0], [_INF, 0.0], [1.0, 0.0]]),
     "non-finite values in data"),
], ids=["responses-2d", "predictors-1d", "n-mismatch", "one-row", "nan-response",
        "inf-predictor"])
def test_dataset_refuses_malformed_input(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        bn.Dataset(**fields)


@pytest.mark.parametrize("c,w,message", [
    (np.ones((2, 3)), np.zeros(2), "C must be a square matrix"),
    (np.eye(3), np.zeros(2), "w length must match C"),
    (np.diag([1.0, math.nan]), np.zeros(2), "non-finite C or w"),
    (np.eye(2), [0.0, _INF], "non-finite C or w"),
    (np.array([[1.0, 0.1], [0.2, 1.0]]), np.zeros(2), "C is not symmetric"),
], ids=["not-square", "w-length", "nan-c", "inf-w", "not-symmetric"])
def test_problem_refuses_malformed_input(c, w, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        bn.PenalizedProblem(c=c, w=w, mu=0.1, lam=0.0, tau=1.0)


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
        # the first faulty line in file order is reported, whatever its fault
        ("g1,y\n1.0,2.0\n2.0,inf\n4.0,two\n", "line 3: non-finite"),
        ("g1,y\nnan,2.0\n2.0\n", "line 2: non-finite"),
        ("g1,y\n1.0,2.0\n2.0, \n4.0,nan\n", "line 3: missing"),
        ("g1,y\nnan,2.0\n", "line 2: non-finite"),
        ("g1,g1,y\n1.0,2.0,3.0\n", "duplicate"),
        ("g1,g2\n1.0,2.0\n", "response"),
        ("", "line 1: empty file"),
        ("y\n1.0\n2.0\n", "line 1: need at least one predictor column"),
    ],
)
def test_load_csv_diagnostics(tmp_path, body, fragment):
    f = tmp_path / "bad.csv"
    f.write_text(body)
    with pytest.raises(bn.ParseError) as exc:
        bn.load_csv(f, "y")
    assert fragment in str(exc.value)


def _per_row_table(path):
    # the table the per-row reader builds from the file's body
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return _rows_table(reader, header)


@pytest.mark.parametrize(
    "body",
    [
        "g1,y\r\n1.5,2\r\n-3,4e-3\r\n",
        "g1,y\n1.5,2\n\n\n-3,4e-3\n\n\n",
        "g1,y\n 1.5 ,  2\n\t-3,4e-3 \n",
        "g1,y\n1.5,2\n-3,4e-3",
    ],
    ids=["crlf", "blank-lines", "spaces", "no-final-newline"],
)
def test_load_csv_loadtxt_body_matches_per_row_reader(tmp_path, body):
    f = tmp_path / "d.csv"
    f.write_bytes(body.encode())
    with open(f, newline="") as fh:
        next(fh)
        fast = _loadtxt_table(fh, 2)
    assert fast is not None
    assert np.array_equal(fast, _per_row_table(f))
    data, _ = bn.load_csv(f, "y")
    assert data.predictors[:, 0].tolist() == [1.5, -3.0]
    assert data.responses.tolist() == [2.0, 4e-3]


def test_load_csv_reads_what_float_reads(tmp_path):
    # numpy's parser refuses quoted numbers and underscores; float() takes them
    f = tmp_path / "d.csv"
    f.write_text('g1,y\n"1.5",2\n-3,1_000\n')
    data, _ = bn.load_csv(f, "y")
    assert data.predictors[:, 0].tolist() == [1.5, -3.0]
    assert data.responses.tolist() == [2.0, 1000.0]


@pytest.mark.parametrize("body", ["g1,y\n", "g1,y", "g1,y\n\n", "g1,y\n1.0,2.0\n"])
def test_load_csv_too_few_rows_warns_nothing(tmp_path, body):
    f = tmp_path / "d.csv"
    f.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bn.ParseError, match="need at least 2 data rows"):
            bn.load_csv(f, "y")


def test_load_csv_whitespace_only_line(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("g1,y\n1.0,2.0\n  \n3.0,4.0\n")
    with pytest.raises(bn.ParseError, match="line 3: expected 2 fields, got 1"):
        bn.load_csv(f, "y")
