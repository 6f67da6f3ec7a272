"""Posterior summaries: means, predictive values, marginal density curves."""

import dataclasses
import functools
import math

import numpy as np
import pytest

import bayonet as bn
from bayonet import GridSpec, expectation, marginal_ml_approx, marginal_sp
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


def test_predictive_mean_against_chain(p5_suite, chain):
    rng = np.random.default_rng(62)
    a = rng.standard_normal(5)
    proj = chain.samples @ a
    se = helpers.batch_se(proj)
    est = proj.mean()
    val = float(a @ expectation(p5_suite["problem"], p5_suite["saddle"]))
    assert abs(val - est) < 3.0 * se


# ---------------------------------------------------------------------------
# stationary-phase marginal


def test_marginal_inner_solve_free_at_center(p5_suite):
    # fixing a coordinate at its posterior mean leaves the remaining
    # stationary point unchanged, so the warm-started inner solve is
    # converged at its start: its one cycle is the polish step
    prob, sad = p5_suite["problem"], p5_suite["saddle"]
    j = 0
    idx = [k for k in range(5) if k != j]
    sub = prob._restrict(idx)
    at_center = sub._replace(w=sub.w - sad.x_tau[j] * prob.c[idx, j])
    [sol] = _saddle_cd(at_center, sad.x_tau[idx], 1e-10)
    assert sol.converged
    assert sol.cycles == 1


def test_marginal_inner_solve_budget_raises(near_transition, monkeypatch):
    # the outer stationary point is already solved; an exhausted budget for
    # the inner solves must surface as NotConverged naming the coordinate,
    # with no retry from another start.  Even a start that meets the
    # tolerance spends one cycle on its polish step, so a zero budget fails
    # the first inner solve.
    prob, sad = near_transition["problem"], near_transition["saddle"]
    monkeypatch.setattr(bn.saddle, "_MAX_CYCLES", 0)
    with pytest.raises(bn.NotConverged, match=r"marginal coordinate 1, grid value") as info:
        marginal_sp(prob, sad, 1)
    assert info.value.cycles == 0


def test_ml_marginal_inner_solve_budget_raises(p5_suite, monkeypatch):
    # the outer ML fit is converged; a zero budget leaves the first inner
    # minimizer unconverged, which surfaces as NotConverged naming the point
    prob, ml = p5_suite["problem"], p5_suite["ml"]
    monkeypatch.setattr(bn.mlfit, "_MAX_CYCLES", 0)
    with pytest.raises(bn.NotConverged, match=r"inner minimizer, coordinate 2, grid value"):
        marginal_ml_approx(prob, ml, 2)


def test_marginal_builds_about_one_factor_per_grid_point(monkeypatch):
    # the factor of C_sub + D behind each log det is reused for the next
    # tangent prediction, and the inner log Z is solved on 9 or 17 nodes:
    # ten 201-point curves at 442x10 build at most 1.5 factors per grid
    # point (about 0.2; 3.4-3.7 with plain neighbor warm starts at every
    # point)
    prob, sad = helpers.build_marginal_case(101)
    built = []
    init = bn.partition._CPlusD.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bn.partition._CPlusD, "__init__", counted)
    points = sum(marginal_sp(prob, sad, j).grid.size for j in range(prob.p))
    assert points == 2010
    assert len(built) <= 1.5 * points


def test_marginal_p5_needs_no_coordinate_sweeps(p5_suite, monkeypatch):
    # neighbor warm starts used to leave the box on this suite, forcing one
    # coordinate sweep per grid point; predicted starts need none
    sweeps = []
    sweep = bn.saddle._sweep

    def counted(*args):
        sweeps.append(1)
        return sweep(*args)

    monkeypatch.setattr(bn.saddle, "_sweep", counted)
    for j in range(5):
        marginal_sp(p5_suite["problem"], p5_suite["saddle"], j)
    assert sweeps == []


def test_every_inner_solve_converges_with_a_polish_step(monkeypatch):
    # every inner solve converges, starts already converged included, and
    # spends at least one cycle, its polish step.  Seventeen bench-shaped
    # curves stop at 9 nodes (5 + 4 solves), three at 17 (9 + 8 more).
    solves = []

    def recorded(problem, x0, tol):
        out = _saddle_cd(problem, x0, tol)
        solves.extend(out)
        return out

    monkeypatch.setattr(bn.posterior, "_saddle_cd", recorded)
    for seed in (101, 102):
        prob, sad = helpers.build_marginal_case(seed)
        for j in range(prob.p):
            marginal_sp(prob, sad, j)
    assert len(solves) == 17 * 9 + 3 * 17
    for sol in solves:
        assert sol.converged and sol.cycles >= 1


def test_marginal_wide_design_keeps_the_low_rank_route(monkeypatch):
    # with p - 1 > n every inner problem takes the n x n determinant route,
    # and its curves match the dense route's plain walk.  Each curve stops
    # at 33 nodes, the fourth node level, each solve building at least its
    # polish step's factor and the one at the polished point.
    std = helpers.random_standardized(59, 12, 30, beta=[1.0, -0.6, 0.4] + [0.0] * 27, noise=0.5)
    base = bn.build_problem(std, 0.1, 1.0, 1.0)
    prob0 = base.with_mu(0.3 * float(np.abs(base.w).max()))
    ml = bn.solve_ml(prob0, tol=1e-12)
    prob = prob0.with_tau(bn.map_tau(std, 0.1, prob0.mu, ml))
    sad = bn.solve_saddle(prob, ml.x_hat, tol=1e-12)
    assert sad.converged
    routes = []
    init = bn.partition._CPlusD.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        routes.append(self._dp is not None)

    monkeypatch.setattr(bn.partition._CPlusD, "__init__", counted)
    curves = [marginal_sp(prob, sad, j) for j in (0, 1, 5)]
    monkeypatch.undo()
    assert len(routes) >= 3 * 33 * 2
    assert all(routes)
    dense = prob._replace(c=prob.c, low_rank_factor=None)
    for curve in curves:
        ref = helpers.marginal_plain_walk(dense, sad, curve.coordinate, curve.grid, 1e-13)
        assert np.max(np.abs(curve.density - ref)) < 1e-6 * ref.max()


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_marginal_matches_tight_plain_walk(seed):
    # the predictor moves each inner solution within the tolerance: against
    # the plain walk at tol 1e-13, the curves at the default tol 1e-10 lie
    # within 1e-6 of the peak, as the plain walk's own curves do
    prob, sad = helpers.build_marginal_case(seed)
    for j in range(prob.p):
        curve = marginal_sp(prob, sad, j)
        ref = helpers.marginal_plain_walk(prob, sad, j, curve.grid, 1e-13)
        plain = helpers.marginal_plain_walk(prob, sad, j, curve.grid, 1e-10)
        peak = ref.max()
        assert np.max(np.abs(curve.density - ref)) < 1e-6 * peak
        assert np.max(np.abs(plain - ref)) < 1e-6 * peak


_marginal_case = functools.cache(helpers.build_marginal_case)


def _gate_case(request, name, scale):
    # the problem and its stationary point at scale x MAP tau
    if name in ("p5_suite", "near_transition"):
        suite = request.getfixturevalue(name)
        prob, sad = suite["problem"], suite["saddle"]
    else:
        prob, sad = _marginal_case(int(name))
    if scale != 1:
        prob = prob.with_tau(scale * prob.tau)
        sad = bn.solve_saddle(prob, sad.x_tau, tol=1e-12)
        assert sad.converged
    return prob, sad


def _within_gate(prob, sad, curve):
    ref = helpers.marginal_plain_walk(prob, sad, curve.coordinate, curve.grid, 1e-13)
    return np.max(np.abs(curve.density - ref)) < 1e-6 * ref.max()


def _recorded_solves(monkeypatch):
    # the problems marginal_sp hands its inner solver, in call order
    problems = []

    def recorded(problem, x0, tol):
        problems.append(problem)
        return _saddle_cd(problem, x0, tol)

    monkeypatch.setattr(bn.posterior, "_saddle_cd", recorded)
    return problems


@pytest.mark.parametrize("scale", [1, 100, 1e4])
@pytest.mark.parametrize("name", ["101", "102", "103", "p5_suite", "near_transition"])
def test_marginal_within_gate_of_tight_plain_walk(request, name, scale):
    # node-interpolated or walked, every curve lies within 1e-6 of the peak
    # of the plain walk at tol 1e-13; near-transition at 100 x MAP tau was
    # 3.1e-6 off when each log det came from a factor built before the
    # polish step
    prob, sad = _gate_case(request, name, scale)
    for j in range(prob.p):
        assert _within_gate(prob, sad, marginal_sp(prob, sad, j))


def test_marginal_ladder_stops_at_the_callers_tol(monkeypatch):
    # node values at tol 1e-6 are only that accurate: with the fixed 1e-7
    # threshold case 101 fell back to the grid walk (967 solves); levels
    # that agree within 1e3 * tol of the peak stop it at 9 nodes a curve
    prob, sad = _marginal_case(101)
    solves = _recorded_solves(monkeypatch)
    curves = [marginal_sp(prob, sad, j, tol=1e-6) for j in range(prob.p)]
    assert len(solves) == 90
    for curve in curves:
        ref = helpers.marginal_plain_walk(prob, sad, curve.coordinate, curve.grid, 1e-13)
        assert np.max(np.abs(curve.density - ref)) < 1e-5 * ref.max()


def test_marginal_falls_back_to_the_grid_walk(request, monkeypatch):
    # at 100 x MAP tau the p5 correlated zero pair (coordinates 2 and 3)
    # disagrees between 33 and 65 nodes, so its curves solve every grid
    # point; the other coordinates stop at 9 nodes
    prob, sad = _gate_case(request, "p5_suite", 100)
    solves = _recorded_solves(monkeypatch)
    for j in range(5):
        solves.clear()
        curve = marginal_sp(prob, sad, j)
        if j in (2, 3):
            assert len(solves) > 65 + 201 - 3
        else:
            assert len(solves) == 9
        assert _within_gate(prob, sad, curve)


@pytest.mark.parametrize("w1", [0.165, 0.18, 0.31])
def test_marginal_sharp_inner_bend_between_coarse_nodes(monkeypatch, w1):
    # the inner coordinate crosses its transition, |w_1 - g C_10| = mu,
    # well inside the grid and at least one sd from each of the 5 nodes,
    # so V bends sharply where the coarsest levels see nothing.  Their
    # curves must disagree rather than agree by accident: stopping at 9
    # nodes puts these curves 5e-4 to 8e-3 of the peak off.
    c = np.array([[0.5, 0.4], [0.4, 0.5]])
    prob = bn.PenalizedProblem(c=c, w=np.array([0.4, w1]), mu=0.1, lam=0.0, tau=1e3)
    sad = bn.solve_saddle(prob, np.zeros(2), tol=1e-12)
    solves = _recorded_solves(monkeypatch)
    curve = marginal_sp(prob, sad, 0)
    grid = curve.grid
    sd = float(bn.posterior_sd(prob, sad)[0])
    bends = (w1 + np.array([-prob.mu, prob.mu])) / c[1, 0]
    bend = bends[np.argmin(np.abs(bends - sad.x_tau[0]))]
    assert grid[0] + sd < bend < grid[-1] - sd
    assert np.min(np.abs(bn.posterior._lobatto(grid[0], grid[-1], 5) - bend)) > sd
    assert len(solves) > 9
    assert _within_gate(prob, sad, curve)


def _explicit_grid_curve(request, monkeypatch, size):
    # near-transition coordinate 0 at 100 x MAP tau on size points over
    # +/- 4 sds, and the inner problems solved for it
    prob, sad = _gate_case(request, "near_transition", 100)
    j = 0
    sd = float(bn.posterior_sd(prob, sad)[j])
    grid = sad.x_tau[j] + np.linspace(-4.0 * sd, 4.0 * sd, size)
    solves = _recorded_solves(monkeypatch)
    curve = marginal_sp(prob, sad, j, grid_spec=GridSpec(points=grid))
    return prob, sad, curve, solves


@pytest.mark.parametrize("size", [5, 9])
def test_marginal_small_explicit_grid_is_walked(request, monkeypatch, size):
    # a grid with fewer than two node levels below its size is solved at
    # its own points, once each
    prob, sad, curve, solves = _explicit_grid_curve(request, monkeypatch, size)
    grid, j = curve.grid, curve.coordinate
    others = np.delete(np.arange(prob.p), j)
    sub, c_col = prob._restrict(others), prob._col(j)[others]
    assert len(solves) == size
    for g in grid:
        assert any(np.array_equal(q.w, sub.w - g * c_col) for q in solves)
    assert _within_gate(prob, sad, curve)


def test_marginal_explicit_grid_of_33_points_gets_nodes(request, monkeypatch):
    # 5, 9 and 17 nodes lie below 33 points; 9 and 17 agree, so the curve
    # takes 17 node solves, not 33 point solves
    prob, sad, curve, solves = _explicit_grid_curve(request, monkeypatch, 33)
    assert len(solves) == 17
    assert _within_gate(prob, sad, curve)


def test_lobatto_interpolation_reproduces_polynomials():
    # barycentric interpolation on m Chebyshev-Lobatto nodes is exact for
    # degree m - 1, at the nodes themselves too
    rng = np.random.default_rng(5)
    poly = np.polynomial.Polynomial(rng.standard_normal(17), domain=[-0.3, 1.7])
    nodes = bn.posterior._lobatto(-0.3, 1.7, 17)
    x = np.concatenate([np.linspace(-0.3, 1.7, 201), nodes])
    got = bn.posterior._barycentric(nodes, poly(nodes), x)
    assert np.max(np.abs(got - poly(x))) < 1e-12 * np.max(np.abs(poly(x)))
    assert np.array_equal(got[201:], poly(nodes))


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
    with pytest.raises(ValueError, match="explicit grid needs at least 2 points"):
        marginal_sp(
            p5_suite["problem"],
            p5_suite["saddle"],
            0,
            grid_spec=GridSpec(points=np.array([0.5])),
        )


# a tol no inner solve can meet, or one every solve meets at once, is
# refused before the first solve spends its cycle budget
_BAD_TOLS = {"negative": -1.0, "zero": 0.0, "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("call,error,message", [
    (lambda prob, ml, sad: marginal_sp(
        prob, sad, 0, grid_spec=GridSpec(points=np.array([0.0, 0.2, 0.1]))),
     ValueError, "explicit grid must be strictly ascending"),
    (lambda prob, ml, sad: marginal_sp(
        prob, sad, 0, grid_spec=GridSpec(points=np.array([0.0, 0.1, 0.1]))),
     ValueError, "explicit grid must be strictly ascending"),
    (lambda prob, ml, sad: marginal_sp(prob, sad, 5),
     ValueError, "coordinate 5 out of range"),
    (lambda prob, ml, sad: marginal_sp(prob, sad, -1),
     ValueError, "coordinate -1 out of range"),
    (lambda prob, ml, sad: marginal_ml_approx(
        prob, dataclasses.replace(ml, converged=False), 0),
     bn.NotConverged, r"\(ML solution not converged\)"),
] + [
    (lambda prob, ml, sad, tol=tol: marginal_sp(prob, sad, 0, tol=tol),
     ValueError, "tol must be positive and finite") for tol in _BAD_TOLS.values()
] + [
    (lambda prob, ml, sad, tol=tol: marginal_ml_approx(prob, ml, 0, tol=tol),
     ValueError, "tol must be positive and finite") for tol in _BAD_TOLS.values()
], ids=["grid-descends", "grid-repeats", "j-past-p", "j-negative", "ml-unconverged"]
    + [f"{f}-tol-{name}" for f in ("sp", "ml") for name in _BAD_TOLS])
def test_marginal_refuses_bad_requests(p5_suite, call, error, message):
    prob, ml, sad = p5_suite["problem"], p5_suite["ml"], p5_suite["saddle"]
    with pytest.raises(error, match=message):
        call(prob, ml, sad)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_explicit_grid_must_be_finite(p5_suite, bad):
    # np.diff of a grid with a NaN or inf passes the ascending check; the
    # curve would come back all NaN, or the inner solve would fail
    prob, ml, sad = p5_suite["problem"], p5_suite["ml"], p5_suite["saddle"]
    spec = GridSpec(points=np.array([0.0, bad]))
    with pytest.raises(ValueError, match="explicit grid must be finite"):
        marginal_sp(prob, sad, 0, grid_spec=spec)
    with pytest.raises(ValueError, match="explicit grid must be finite"):
        marginal_ml_approx(prob, ml, 0, grid_spec=spec)


def test_marginal_one_coordinate_is_exact():
    # with p = 1 there is no inner problem: both curves are the exact density
    # on their own grids, up to the trapezoid normalization
    c, w, mu, tau = 1.0, 0.4, 0.1, 50.0
    prob = bn.PenalizedProblem(c=np.array([[c]]), w=np.array([w]), mu=mu, lam=0.0, tau=tau)
    sad = bn.solve_saddle(prob, np.zeros(1))
    ml = bn.solve_ml(prob)
    one = bn.OneDimProblem(c=c, w=w, mu=mu, tau=tau)
    for curve in (marginal_sp(prob, sad, 0), marginal_ml_approx(prob, ml, 0)):
        assert curve.grid.size == 201
        ref = bn.density_exact(one, curve.grid)
        assert np.max(np.abs(curve.density - ref)) < 1e-5 * ref.max()


@pytest.mark.parametrize("call", [bn.posterior_sd, marginal_sp, expectation],
                         ids=["posterior_sd", "marginal_sp", "expectation"])
def test_saddle_must_be_converged_at_the_problems_tau(p5_suite, call):
    prob, sad = p5_suite["problem"], p5_suite["saddle"]
    args = (0,) if call is marginal_sp else ()
    with pytest.raises(bn.NotConverged):
        call(prob, dataclasses.replace(sad, converged=False), *args)
    with pytest.raises(ValueError, match="different tau"):
        call(prob.with_tau(2.0 * prob.tau), sad, *args)
    with pytest.raises(ValueError, match="different mu"):
        call(prob.with_mu(0.5 * prob.mu), sad, *args)


def test_default_grid_that_collapses_is_a_numerical_error(recwarn, monkeypatch):
    # at tau = 1e100 the posterior sd is below the spacing of the floats
    # near the mean, at 1e300 it underflows: the default grid had 201 equal
    # points and an all-inf density, or was a ValueError (exit 4).  Both
    # curves refuse it before any inner solve.
    std = helpers.random_standardized(3, 40, 5, beta=[1, 0, -0.5, 0, 0.3])
    monkeypatch.setattr(bn.posterior, "_saddle_cd", None)
    monkeypatch.setattr(bn.posterior, "_ml_cd", None)
    for tau in (1e100, 1e300):
        prob = bn.build_problem(std, 0.0, 0.1, tau)
        ml = bn.solve_ml(prob)
        sad = bn.solve_saddle(prob, ml.x_hat)
        assert sad.converged
        with pytest.raises(bn.NumericalError, match="lays out no grid"):
            marginal_sp(prob, sad, 0)
        with pytest.raises(bn.NumericalError, match="lays out no grid"):
            marginal_ml_approx(prob, ml, 0)
    assert len(recwarn) == 0


# ---------------------------------------------------------------------------
# sparse-solution approximation to the marginal


def test_ml_curve_agrees_for_far_inactive_coordinate(p5_suite):
    # coordinate 4 is pure noise, far below its activation point
    prob, ml, sad = p5_suite["problem"], p5_suite["ml"], p5_suite["saddle"]
    j = 4
    sp = marginal_sp(prob, sad, j)
    mlc = marginal_ml_approx(prob, ml, j, grid_spec=GridSpec(points=sp.grid))
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
