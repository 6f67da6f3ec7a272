"""Hyperparameter tests: grids, inverse-temperature estimate, CV harness."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import bayonet as bn
import bayonet.hyper
import helpers
from bayonet.data import _cost
from bayonet.partition import _CPlusD


# --- mu_max -----------------------------------------------------------------

def test_mu_max_is_largest_abs_entry():
    assert bn.mu_max(np.array([0.2, -0.7, 0.1])) == 0.7


def test_mu_max_rejects_all_zero():
    with pytest.raises(bn.NumericalError, match="w has no nonzero entry"):
        bn.mu_max(np.zeros(4))
    with pytest.raises(bn.NumericalError, match="w has no nonzero entry"):
        bn.mu_max(np.array([]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mu_max_rejects_non_finite_w(bad):
    # checked before the zeros test, which a NaN would pass
    with pytest.raises(ValueError, match="w must be finite"):
        bn.mu_max(np.array([bad, 0.0]))


# --- grids ------------------------------------------------------------------

def test_mu_grid_closed_form_endpoints():
    cap = 0.83
    g = bn.mu_grid(cap, 10, 0.01)
    assert g[0] == pytest.approx(0.01 * cap, rel=1e-14)
    assert g[-1] == pytest.approx(cap * 0.01 ** 0.1, rel=1e-14)
    # direct formula at every index
    for n in range(1, 11):
        assert g[n - 1] == pytest.approx(cap * 0.01 ** ((10 + 1 - n) / 10), rel=1e-14)


def test_mu_grid_increasing_and_below_cap():
    g = bn.mu_grid(1.7, 25, 0.05)
    assert np.all(np.diff(g) > 0.0)
    assert g[-1] < 1.7


def test_mu_grid_validation():
    with pytest.raises(ValueError):
        bn.mu_grid(1.0, 0, 0.01)
    with pytest.raises(ValueError):
        bn.mu_grid(1.0, 5, 0.0)
    with pytest.raises(ValueError):
        bn.mu_grid(1.0, 5, 1.0)


def test_tau_grid_closed_form():
    g = bn.tau_grid(12, 13)
    assert g[0] == pytest.approx(1e3, rel=1e-14)
    assert g[-1] == pytest.approx(1e6, rel=1e-14)
    ratios = g[1:] / g[:-1]
    assert np.all(np.abs(ratios - 10.0 ** 0.25) < 1e-12)


def test_tau_grid_validation():
    with pytest.raises(ValueError):
        bn.tau_grid(0, 5)
    with pytest.raises(ValueError):
        bn.tau_grid(3, 0)


def test_tau_grid_refuses_overflow():
    # the largest value must be a finite float; the grid is refused before
    # a power is taken, so no overflow warning is raised on the way
    assert bn.tau_grid(1233, 1)[0] == pytest.approx(1.7782794100389228e308, rel=1e-14)
    assert np.isfinite(bn.tau_grid(1, 1233)).all()
    for offset, count in ((2000, 3), (1234, 1), (1, 1234), (10**400, 1)):
        with pytest.raises(ValueError, match="overflows"):
            bn.tau_grid(offset, count)


def test_default_grid_composition():
    w = np.array([0.4, -0.9, 0.2])
    grid = bn.default_grid(w, lam=0.07)
    assert grid.lam == 0.07
    assert np.array_equal(grid.mus, bn.mu_grid(0.9, 10, 0.01)[::-1])
    assert np.array_equal(grid.taus, bn.tau_grid(12, 13))


def test_hyper_grid_validation():
    mus = np.array([0.5, 0.1])
    taus = np.array([10.0, 100.0])
    bn.HyperGrid(mus=mus, taus=taus, lam=0.0)  # fine
    with pytest.raises(ValueError):
        bn.HyperGrid(mus=mus[::-1].copy(), taus=taus, lam=0.0)
    with pytest.raises(ValueError):
        bn.HyperGrid(mus=mus, taus=taus[::-1].copy(), lam=0.0)
    with pytest.raises(ValueError):
        bn.HyperGrid(mus=np.array([0.5, -0.1]), taus=taus, lam=0.0)
    with pytest.raises(ValueError):
        bn.HyperGrid(mus=mus, taus=taus, lam=-1.0)


@pytest.mark.parametrize(
    "fields",
    [
        {"mus": [math.inf, 0.1]},
        {"mus": [0.5, math.nan]},
        {"taus": [10.0, math.inf]},
        {"taus": [math.nan, 100.0]},
        {"lam": math.inf},
        {"lam": math.nan},
    ],
    ids=["mus-inf", "mus-nan", "taus-inf", "taus-nan", "lam-inf", "lam-nan"],
)
def test_hyper_grid_rejects_non_finite(fields):
    # NaN passed the <= 0 and diff checks, inf passed them all
    kwargs = {"mus": [0.5, 0.1], "taus": [10.0, 100.0], "lam": 0.0, **fields}
    with pytest.raises(ValueError, match="finite"):
        bn.HyperGrid(**kwargs)


def test_hyper_grid_arrays_read_only():
    grid = bn.HyperGrid(mus=np.array([0.5, 0.1]), taus=np.array([1.0, 2.0]), lam=0.0)
    with pytest.raises(ValueError):
        grid.mus[0] = 9.0


# --- map_tau ----------------------------------------------------------------

def test_map_tau_all_zero_solution_closed_form():
    # x_hat = 0 leaves only the response term; standardized responses have
    # squared norm n, so the estimate collapses to 2*(p + n/2)
    std = helpers.random_standardized(50, 90, 4)
    prob = bn.build_problem(std, lam=0.1, mu=1.0, tau=1.0)
    mu = 2.0 * bn.mu_max(prob.w)
    ml = bn.solve_ml(bn.build_problem(std, 0.1, mu, 1.0))
    assert ml.active_set == ()
    tau = bn.map_tau(std, 0.1, mu, ml)
    assert tau == pytest.approx(2.0 * (std.p + std.n / 2.0), rel=1e-12)


def test_map_tau_matches_term_by_term_evaluation():
    std = helpers.random_standardized(51, 120, 6, beta=np.array([1.0, -0.5, 0.3, 0, 0, 0]))
    lam, mu = 0.05, 0.04
    ml = bn.solve_ml(bn.build_problem(std, lam, mu, 1.0))
    tau = bn.map_tau(std, lam, mu, ml)
    r = std.responses - std.predictors @ ml.x_hat
    den = (r @ r) / (2.0 * std.n) + lam * (ml.x_hat @ ml.x_hat) + 2.0 * mu * np.sum(
        np.abs(ml.x_hat)
    )
    assert tau == pytest.approx((std.p + std.n / 2.0) / den, rel=1e-14)


def test_map_tau_permutation_invariant():
    std = helpers.random_standardized(52, 100, 5, beta=np.array([0.9, 0.0, -0.6, 0.2, 0.0]))
    lam, mu = 0.08, 0.05
    ml = bn.solve_ml(bn.build_problem(std, lam, mu, 1.0))
    tau = bn.map_tau(std, lam, mu, ml)
    perm = [3, 0, 4, 1, 2]
    std_p = bn.Dataset(
        responses=std.responses,
        predictors=std.predictors[:, perm],
        standardized=True,
        predictor_offset=std.predictor_offset[perm],
        predictor_scale=std.predictor_scale[perm],
        response_offset=std.response_offset,
        response_scale=std.response_scale,
    )
    ml_p = bn.solve_ml(bn.build_problem(std_p, lam, mu, 1.0))
    tau_p = bn.map_tau(std_p, lam, mu, ml_p)
    assert tau_p == pytest.approx(tau, rel=1e-10)


def test_map_tau_requires_standardized_and_converged():
    raw = bn.Dataset(
        responses=np.arange(8.0), predictors=np.arange(16.0).reshape(8, 2)
    )
    std = bn.standardize(raw)
    ml = bn.solve_ml(bn.build_problem(std, 0.1, 0.05, 1.0))
    with pytest.raises(ValueError):
        bn.map_tau(raw, 0.1, 0.05, ml)
    bad = bn.MlSolution(
        x_hat=ml.x_hat, active_set=ml.active_set, h_min=ml.h_min, cycles=5,
        converged=False,
    )
    with pytest.raises(bn.NotConverged):
        bn.map_tau(std, 0.1, 0.05, bad)
    short = bn.MlSolution(
        x_hat=np.zeros(3), active_set=(), h_min=0.0, cycles=0, converged=True
    )
    with pytest.raises(ValueError):
        bn.map_tau(std, 0.1, 0.05, short)


def test_map_tau_degenerate_denominator():
    # plant the response itself as a predictor column: the unit vector on that
    # column fits perfectly, and with lam = mu = 0 the denominator vanishes
    std = helpers.random_standardized(53, 40, 3)
    preds = std.predictors.copy()
    preds[:, 0] = std.responses
    data = bn.Dataset(responses=std.responses, predictors=preds, standardized=True)
    perfect = bn.MlSolution(
        x_hat=np.array([1.0, 0.0, 0.0]), active_set=(0,), h_min=0.0, cycles=1,
        converged=True,
    )
    with pytest.raises(bn.NumericalError, match="perfect fit with no penalty"):
        bn.map_tau(data, 0.0, 0.0, perfect)


def test_map_tau_diabetes_reference_value(diabetes):
    if diabetes is None:
        pytest.skip("diabetes data not available")
    std = bn.standardize(diabetes)
    ml = bn.solve_ml(bn.build_problem(std, 0.1, 0.0397, 1.0), tol=1e-12)
    tau = bn.map_tau(std, 0.1, 0.0397, ml)
    assert abs(tau - 682.3) / 682.3 < 0.005


# --- pearson ----------------------------------------------------------------

def test_pearson_basic_and_degenerate():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert bn.hyper.pearson(a, 2.0 * a + 1.0) == pytest.approx(1.0, abs=1e-14)
    assert bn.hyper.pearson(a, -a) == pytest.approx(-1.0, abs=1e-14)
    assert bn.hyper.pearson(a, np.full(4, 3.3)) == 0.0
    # a 2-D second argument: one correlation per column, constant columns 0
    cols = np.column_stack([2.0 * a + 1.0, -a, np.full(4, 3.3), [1.0, 0.0, 2.0, 5.0]])
    r = bn.hyper.pearson(a, cols)
    assert r.shape == (4,) and r[2] == 0.0
    assert r == pytest.approx([bn.hyper.pearson(a, c) for c in cols.T], abs=1e-14)


# --- cross_validate ---------------------------------------------------------

def small_grid(std, lam, n_mu=4, n_tau=3):
    cap = bn.mu_max(bn.build_problem(std, lam, 1.0, 1.0).w)
    return bn.HyperGrid(
        mus=bn.mu_grid(cap, n_mu, 0.01)[::-1].copy(),
        taus=bn.tau_grid(12, n_tau),
        lam=lam,
    )


def test_cv_null_response_scores_near_zero():
    std = helpers.random_standardized(404, 60, 6, beta=np.zeros(6))
    rep = bn.cross_validate(std, small_grid(std, 0.05), folds=5, seed=101)
    assert abs(rep.best_median) < 2.0 / math.sqrt(60 / 5)


def test_cv_planted_model_beats_ridge_column():
    beta = np.zeros(20)
    beta[[1, 7, 13]] = [1.2, -0.9, 0.6]
    std = helpers.random_standardized(777, 100, 20, beta=beta, noise=0.05)
    rep = bn.cross_validate(std, small_grid(std, 0.01, n_mu=6, n_tau=5), folds=5, seed=202)
    # last mu row is the smallest weight in the grid, the near-ridge column
    ridge_best = np.nanmax(rep.median_scores[-1, :])
    assert rep.best_median >= ridge_best
    assert rep.best_median > 0.9


def test_cv_reproducible_bit_for_bit():
    std = helpers.random_standardized(404, 60, 6, beta=np.zeros(6))
    grid = small_grid(std, 0.05)
    a = bn.cross_validate(std, grid, folds=5, seed=9)
    b = bn.cross_validate(std, grid, folds=5, seed=9)
    assert np.array_equal(a.fold_assignment, b.fold_assignment)
    assert np.array_equal(a.fold_scores, b.fold_scores, equal_nan=True)
    c = bn.cross_validate(std, grid, folds=5, seed=10)
    assert not np.array_equal(a.fold_assignment, c.fold_assignment)


# n, p, folds, lam, screen_top and the (fold, mu row) whose ML fit fails
CV_STACK_CASES = {
    "442x10": (442, 10, 10, 0.1, None, None),
    "screened": (120, 30, 5, 0.05, 8, None),
    # every training fold of 20 rows is wider than p: the low-rank route
    "wide": (30, 40, 3, 0.1, None, None),
    # training folds of 36 and 37 rows: one wide fold, nine dense
    "both-sides-of-n": (41, 37, 10, 0.1, None, None),
    # dense folds of p = 19 take the batched LU solve, one fold is wide
    "lu-and-lowrank": (21, 19, 10, 0.1, None, None),
    # fold 3 loses its third mu row, so it has fewer lanes than the others
    "ml-fit-fails": (60, 6, 5, 0.05, None, (3, 2)),
}


@pytest.mark.parametrize("case", list(CV_STACK_CASES))
def test_cv_stack_equals_fold_by_fold(case, monkeypatch):
    # every fold's lanes in one tau_path score bit for bit as one tau_path
    # per fold
    n, p, folds, lam, top, fail = CV_STACK_CASES[case]
    beta = np.zeros(p)
    beta[:3] = [1.0, -0.6, 0.3]
    std = helpers.random_standardized(len(case), n, p, beta=beta, noise=0.5)
    grid = bn.default_grid(bn.build_problem(std, lam, 1.0, 1.0).w, lam)
    if fail is not None:
        # fold fail[0]'s fit at grid mu fail[1] does not converge: in the
        # stack, its lane at that mu; in the reference, which runs the ML
        # fits fold by fold, one per mu, in grid order, that call
        ml_stack, solve_ml, fits = bn.hyper._ml_stack, bn.solve_ml, []

        def failing_lane(problems, starts, mu, tol):
            out = ml_stack(problems, starts, mu, tol)
            if mu == grid.mus[fail[1]]:
                x, cycles, _ = out[fail[0]]
                out[fail[0]] = (x, cycles, False)
            return out

        def failing(problem, tol=1e-10, init=None):
            fits.append(1)
            ml = solve_ml(problem, tol=tol, init=init)
            if len(fits) == fail[0] * grid.mus.size + fail[1] + 1:
                ml = dataclasses.replace(ml, converged=False)
            return ml

        monkeypatch.setattr(bn.hyper, "_ml_stack", failing_lane)
        monkeypatch.setattr(bn, "solve_ml", failing)
    rep = bn.cross_validate(std, grid, folds, seed=7, screen_top=top)
    ref = helpers.cv_fold_by_fold(std, grid, folds, seed=7, screen_top=top)
    assert rep.fold_scores.tobytes() == ref.tobytes()
    lost = np.isnan(rep.fold_scores)
    if fail is None:
        assert not lost.any()
    else:
        assert lost[fail].all() and lost.sum() == grid.taus.size
    n_train = n - np.bincount(rep.fold_assignment)
    wide = n_train < (p if top is None else top)
    assert wide.all() if case == "wide" else not wide.all()
    assert wide.any() == (case in ("wide", "both-sides-of-n", "lu-and-lowrank"))


def _fold_lanes(std, lam, folds, top=None):
    # cross_validate's lanes: every training fold's problem
    grid = bn.default_grid(bn.build_problem(std, lam, 1.0, 1.0).w, lam)
    parts = np.array_split(np.random.default_rng(folds).permutation(std.n), folds)
    return [
        bn.hyper._fold_problem(std, grid, np.concatenate(parts[:f] + parts[f + 1:]),
                               parts[f], top).base
        for f in range(folds)
    ]


def _duplicate_column_lanes():
    # column 5 copies column 0 at lam 0, w_5 and w_0 a rounding apart: the
    # block of any active set holding both is singular.  C is checked when a
    # problem is built, so the lanes are unchecked copies of a valid one
    lanes = []
    for seed in (3, 4):
        std = helpers.random_standardized(seed, 60, 5, beta=[1, -0.5, 0.3, 0, 0], noise=0.5)
        a = np.column_stack([std.predictors, std.predictors[:, 0]])
        lanes.append(bn.build_problem(std, 0.0, 1.0, 1.0)._replace(
            c=a.T @ a / 120.0, w=a.T @ std.responses / 120.0))
    return lanes


def _mus(lanes, count, ratio):
    # one descending grid for every lane, from the largest lane's mu_max
    return bn.mu_grid(max(bn.mu_max(lane.w) for lane in lanes), count, ratio)[::-1].copy()


ML_PATH_CASES = {
    "442x10": lambda: _fold_lanes(helpers.random_standardized(
        1, 442, 10, beta=[1.0, -0.6, 0.3] + [0.0] * 7, noise=0.5), 0.1, 10),
    "screened": lambda: _fold_lanes(helpers.random_standardized(
        2, 120, 30, beta=[1.0, -0.6, 0.3] + [0.0] * 27, noise=0.5), 0.05, 5, top=8),
    # 20 training rows of 40 columns: blocks wider than n and n or narrower
    "wide": lambda: _fold_lanes(helpers.random_standardized(
        3, 30, 40, beta=[1.0, -0.6, 0.3] + [0.0] * 37, noise=0.5), 0.1, 3),
    # a near copy of g0 that enters y with the other sign: warm signs
    # disagree and the lanes sweep
    "signs-disagree": lambda: _fold_lanes(
        bn.standardize(helpers.suppressor_dataset()), 0.0, 4),
    "singular-block": _duplicate_column_lanes,
    # a budget of 2 cycles: a fit that needs more fails, loses its row and
    # starts no later fit of its lane
    "fit-fails": lambda: _fold_lanes(
        bn.standardize(helpers.suppressor_dataset()), 0.0, 4),
    # convergence's one lane
    "one-lane": lambda: [bn.build_problem(helpers.random_standardized(
        5, 80, 12, beta=[1.0, 0.0, -0.4] + [0.0] * 9, noise=0.5), 0.1, 1.0, 1.0)],
}


@pytest.mark.parametrize("case", list(ML_PATH_CASES))
def test_ml_path_equals_a_solve_ml_chain_per_lane(case, monkeypatch):
    # the stacked path equals, lane by lane and bit for bit, a plain chain of
    # solve_ml calls down the lane's mus, each from the last converged
    # minimizer: minimizers, converged rows and cycles, and h_min
    lanes = ML_PATH_CASES[case]()
    mus = _mus(lanes, 20, 0.001)
    if case == "fit-fails":
        monkeypatch.setattr(bn.mlfit, "_MAX_CYCLES", 2)
    refs = []
    for lane in lanes:
        chain, warm = [], None
        for mu in mus:
            chain.append(bn.solve_ml(lane.with_mu(mu), tol=1e-10, init=warm))
            if chain[-1].converged:
                warm = chain[-1].x_hat
        refs.append(chain)
    routes = {"block": 0, "core": 0, "singular": 0, "sweeps": 0}
    cholesky, core, sweep = bn.mlfit._cholesky, bn.mlfit._CPlusD, bn.mlfit._block_sweep

    def counted_cholesky(matrix):
        routes["block"] += 1
        try:
            return cholesky(matrix)
        except bn.SingularMatrix:
            routes["singular"] += 1
            raise

    def counted_core(sub, e):
        routes["core"] += 1
        return core(sub, e)

    def counted_sweep(*args):
        routes["sweeps"] += 1
        return sweep(*args)

    monkeypatch.setattr(bn.mlfit, "_cholesky", counted_cholesky)
    monkeypatch.setattr(bn.mlfit, "_CPlusD", counted_core)
    monkeypatch.setattr(bn.mlfit, "_block_sweep", counted_sweep)
    paths = bn.hyper._ml_path(lanes, mus, 1e-10)
    assert len(paths) == len(lanes)
    for lane, path, chain in zip(lanes, paths, refs):
        assert len(path) == mus.size
        for mu, (x, cycles, ok), ml in zip(mus, path, chain):
            assert x.tobytes() == ml.x_hat.tobytes()
            assert (cycles, ok) == (ml.cycles, ml.converged)
            assert _cost(lane.with_mu(mu), x) == ml.h_min
    ok = np.array([[fit[2] for fit in path] for path in paths])
    assert ok.all() != (case == "fit-fails")
    # each case takes the route it is named for; only wide lanes have a
    # block wider than n, only the duplicate column a singular one
    named = {"wide": ("core", "block"), "signs-disagree": ("sweeps",),
             "singular-block": ("singular", "sweeps"), "fit-fails": ("sweeps",)}
    assert all(routes[route] for route in named.get(case, ("block",)))
    assert bool(routes["core"]) == (case == "wide")
    assert bool(routes["singular"]) == (case == "singular-block")
    if case == "signs-disagree":
        # warm fits whose first solve was not kept
        assert any(fit[1] > 1 for path in paths for fit in path[1:])


def test_cv_lane_error_in_one_fold_costs_only_that_fold(monkeypatch):
    # a NumericalError raised inside the stacked solve by fold 1's lanes:
    # their C + D systems cannot be solved, so they sweep, and a sweep of
    # fold 1's problem raises.  The stacked tau_path raises, each fold is
    # then solved alone, and only fold 1 is lost
    std = helpers.random_standardized(31, 53, 4)
    grid = small_grid(std, 0.02)
    clean = bn.cross_validate(std, grid, folds=5, seed=3)
    build_problem, tau_path = bn.hyper.build_problem, bn.hyper.tau_path
    solve_stack, sweep_ = _CPlusD.solve_stack, bn.saddle._sweep
    built, paths = [], []

    def counted_build(*args):
        built.append(build_problem(*args))
        return built[-1]

    def path(problem, taus, **kwargs):
        paths.append(len(problem) if isinstance(problem, list) else 1)
        return tau_path(problem, taus, **kwargs)

    def unsolvable(problem, e, rhs, ok):
        # fold 1's systems get a NaN e, which solve_stack flags
        e = e.copy()
        for prob, lo, hi in problem if isinstance(problem, list) else [(problem, 0, len(ok))]:
            if prob is built[1]:
                e[lo:hi] = math.nan
        return solve_stack(problem, e, rhs, ok)

    def sweep(problem, x):
        if problem.w is built[1].w:
            raise bn.NumericalError("no interior root")
        return sweep_(problem, x)

    monkeypatch.setattr(bn.hyper, "build_problem", counted_build)
    monkeypatch.setattr(bn.hyper, "tau_path", path)
    monkeypatch.setattr(_CPlusD, "solve_stack", staticmethod(unsolvable))
    monkeypatch.setattr(bn.saddle, "_sweep", sweep)
    rep = bn.cross_validate(std, grid, folds=5, seed=3)
    # one stacked call of every fold's 4 mu rows, then one call per fold
    assert paths == [20, 1, 1, 1, 1, 1]
    assert np.isnan(rep.fold_scores[1]).all()
    rest = np.delete(rep.fold_scores, 1, axis=0)
    assert np.array_equal(rest, np.delete(clean.fold_scores, 1, axis=0))


def test_cv_unconverged_lane_scores_nan(monkeypatch):
    # a lane of a path that did not converge drops out as NaN; the other
    # lanes of the same path still score
    std = helpers.random_standardized(31, 53, 4)
    tau_path = bn.hyper.tau_path

    def first_lane_fails(problem, taus, **kwargs):
        # one fold-wide call, mu major: the first lane of every mu row
        sols = tau_path(problem, taus, **kwargs)
        return [
            dataclasses.replace(sol, converged=False) if k % len(taus) == 0 else sol
            for k, sol in enumerate(sols)
        ]

    monkeypatch.setattr(bn.hyper, "tau_path", first_lane_fails)
    rep = bn.cross_validate(std, small_grid(std, 0.02), folds=5, seed=3)
    # the first lane is the smallest tau, the first grid column
    assert np.isnan(rep.fold_scores[:, :, 0]).all()
    assert np.isfinite(rep.fold_scores[:, :, 1:]).all()


def test_cv_ml_failure_costs_only_its_own_row(monkeypatch):
    # the ML fits run down the mu column, each from the previous converged
    # minimizer; a fit that does not converge drops its row and the next
    # mu starts from the last converged one
    std = helpers.random_standardized(31, 53, 4)
    grid = small_grid(std, 0.02)
    clean = bn.cross_validate(std, grid, folds=5, seed=3)
    ml_stack, lanes = bn.hyper._ml_stack, {}

    def second_mu_fails(problems, starts, mu, tol):
        # one call per mu, one lane per fold
        for k, init in enumerate(starts):
            lanes.setdefault(k, []).append(init)
        fits = ml_stack(problems, starts, mu, tol)
        if mu == grid.mus[1]:
            fits = [(np.full(4, np.nan), cycles, False) for _, cycles, _ in fits]
        return fits

    monkeypatch.setattr(bn.hyper, "_ml_stack", second_mu_fails)
    rep = bn.cross_validate(std, grid, folds=5, seed=3)
    # every fit's start, fold by fold and down each fold's mus
    starts = [init for k in sorted(lanes) for init in lanes[k]]
    assert np.isnan(rep.fold_scores[:, 1]).all()
    rest = np.delete(rep.fold_scores, 1, axis=1)
    assert np.isfinite(rest).all()
    assert np.max(np.abs(rest - np.delete(clean.fold_scores, 1, axis=1))) < 1e-12
    # per fold: a cold first fit, then warm starts that skip the failed mu
    assert all(x is None for x in starts[::4])
    assert all(np.isfinite(x).all() for k, x in enumerate(starts) if k % 4)


@pytest.mark.parametrize("stage", ["build_problem", "solve_ml", "tau_path"])
def test_cv_fold_that_fails_whole_is_skipped(stage, monkeypatch):
    # a fold whose problem cannot be built, whose every ML fit fails or
    # whose solve raises scores NaN throughout; the other folds score as
    # they would alone
    std = helpers.random_standardized(31, 53, 4)
    grid = small_grid(std, 0.02)
    clean = bn.cross_validate(std, grid, folds=5, seed=3)
    build_problem, ml_stack, tau_path = (
        bn.hyper.build_problem, bn.hyper._ml_stack, bn.hyper.tau_path
    )
    folds, built = [], []

    def failing(name):
        return stage == name and len(folds) == 2

    def counted_build(*args):
        folds.append(1)
        if failing("build_problem"):
            raise bn.SingularMatrix("injected")
        built.append(build_problem(*args))
        return built[-1]

    def ml(problems, starts, mu, tol):
        # every fold's ML fits run after every fold is built: fold 1's lane
        # is picked by its problem, the second built
        out = ml_stack(problems, starts, mu, tol)
        return [
            (x, cycles, ok and not (stage == "solve_ml" and prob is built[1]))
            for prob, (x, cycles, ok) in zip(problems, out)
        ]

    def path(problem, taus, **kwargs):
        # fold 1 is picked by its problem, the second built: every fold's
        # problems come to one stacked call, then to a call per fold
        lanes = problem if isinstance(problem, list) else [problem]
        if stage == "tau_path" and any(prob is built[1] for prob in lanes):
            raise bn.NumericalError("injected")
        return tau_path(problem, taus, **kwargs)

    monkeypatch.setattr(bn.hyper, "build_problem", counted_build)
    monkeypatch.setattr(bn.hyper, "_ml_stack", ml)
    monkeypatch.setattr(bn.hyper, "tau_path", path)
    rep = bn.cross_validate(std, grid, folds=5, seed=3)
    assert len(folds) == 5
    assert np.isnan(rep.fold_scores[1]).all()
    rest = np.delete(rep.fold_scores, 1, axis=0)
    assert np.array_equal(rest, np.delete(clean.fold_scores, 1, axis=0))


def test_cv_fold_with_a_constant_column_loses_only_its_fold():
    # the data standardize as a whole, but column 2 is constant in the
    # training fold that holds row 0 out: that fold scores NaN and every
    # other fold scores
    data = helpers.one_row_column_dataset()
    grid = small_grid(bn.standardize(data), 0.1)
    rep = bn.cross_validate(data, grid, folds=5, seed=0)
    lost = rep.fold_assignment[0]
    assert np.isnan(rep.fold_scores[lost]).all()
    assert np.isfinite(np.delete(rep.fold_scores, lost, axis=0)).all()
    assert np.isfinite(rep.median_scores).all()


@pytest.mark.parametrize("folds", [1, 2, 5, 10, 600])
def test_fold_median_is_nanmedians_bytes(folds):
    # the fold-wise median skips NaN cells and is NaN where every fold is;
    # its bytes are np.nanmedian's, signed zeros and even counts included
    rng = np.random.default_rng(folds)
    scores = np.round(rng.uniform(-1.0, 1.0, size=(folds, 6, 7)), 1)
    scores[rng.uniform(size=scores.shape) < 0.4] = np.nan
    scores[:, 0, 0] = np.nan
    scores[:, 1, 1] = -0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = np.nanmedian(scores, axis=0)
    assert bn.hyper._nanmedian(scores).tobytes() == want.tobytes()


def test_cv_every_cell_failed_raises(monkeypatch):
    std = helpers.random_standardized(31, 53, 4)

    def path(problem, taus, **kwargs):
        raise bn.NumericalError("injected")

    monkeypatch.setattr(bn.hyper, "tau_path", path)
    with pytest.raises(bn.NotConverged, match="every grid cell failed") as info:
        bn.cross_validate(std, small_grid(std, 0.02), folds=5, seed=3)
    assert isinstance(info.value.__cause__, bn.NumericalError)


def test_cv_fold_partition_covers_all_rows():
    std = helpers.random_standardized(31, 53, 4)
    rep = bn.cross_validate(std, small_grid(std, 0.02), folds=5, seed=3)
    counts = np.bincount(rep.fold_assignment, minlength=5)
    assert counts.sum() == 53
    assert counts.min() >= 53 // 5
    assert counts.max() <= -(-53 // 5)


def test_cv_standardizes_training_folds_only(monkeypatch):
    std = helpers.random_standardized(404, 60, 6, beta=np.zeros(6))
    seen = []
    real = bn.standardize

    def spy(dataset):
        seen.append(dataset.n)
        return real(dataset)

    monkeypatch.setattr(bayonet.hyper, "standardize", spy)
    bn.cross_validate(std, small_grid(std, 0.05), folds=5, seed=101)
    assert seen == [48] * 5  # never the full 60 rows


def test_cv_feature_screening_runs_and_is_deterministic():
    beta = np.zeros(12)
    beta[[0, 5]] = [1.0, -0.8]
    std = helpers.random_standardized(88, 80, 12, beta=beta, noise=0.1)
    grid = small_grid(std, 0.02)
    a = bn.cross_validate(std, grid, folds=4, seed=6, screen_top=4)
    b = bn.cross_validate(std, grid, folds=4, seed=6, screen_top=4)
    assert np.isfinite(a.best_median)
    assert a.best_median > 0.5
    assert np.array_equal(a.fold_scores, b.fold_scores, equal_nan=True)


def test_cv_validation():
    std = helpers.random_standardized(1, 30, 3)
    grid = small_grid(std, 0.02)
    with pytest.raises(ValueError):
        bn.cross_validate(std, grid, folds=1, seed=0)
    # every held-out fold needs 2 rows to score: 30 rows take 15 folds
    for folds in (30, 31, 16):
        with pytest.raises(ValueError, match="each held-out fold needs at least 2"):
            bn.cross_validate(std, grid, folds=folds, seed=0)
    rep = bn.cross_validate(std, grid, folds=15, seed=0)
    assert np.bincount(rep.fold_assignment).min() == 2
    with pytest.raises(ValueError, match="screen_top"):
        bn.cross_validate(std, grid, folds=3, seed=0, screen_top=0)
