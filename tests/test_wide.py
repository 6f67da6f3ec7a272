"""Wide designs (p > n) hold the design A instead of C = A'A/(2n) + lam*I.

Every solver must give the same answers as on the same problem with C
materialized and no design factor, the dense route, to within 1e-10.
"""

import tracemalloc

import numpy as np
import pytest

import bayonet as bn
from bayonet import hyper, saddle

import helpers

TOL = 1e-10


def dense_twin(prob):
    # the same C, passed in as a matrix: no factor, so every read is dense
    return bn.PenalizedProblem(c=prob.c, w=prob.w, mu=prob.mu, lam=prob.lam, tau=prob.tau)


@pytest.fixture(scope="module", params=[(100, 400, 61), (300, 1000, 62)],
                ids=["100x400", "300x1000"])
def case(request):
    n, p, seed = request.param
    prob, _ = helpers.build_marginal_case(seed, n=n, p=p, k=10)
    assert prob.low_rank_factor is not None
    assert "c" not in vars(prob)
    out = {}
    for route, pr in (("wide", prob), ("dense", dense_twin(prob))):
        ml = bn.solve_ml(pr)
        sad = bn.solve_saddle(pr, ml.x_hat)
        assert ml.converged and sad.converged
        out[route] = (pr, ml, sad)
    return out


def test_point_estimates_and_log_z_agree(case):
    (wp, wml, wsad), (dp, dml, dsad) = case["wide"], case["dense"]
    assert wml.active_set == dml.active_set
    assert np.max(np.abs(wml.x_hat - dml.x_hat)) < TOL
    assert abs(wml.h_min - dml.h_min) < TOL
    assert np.max(np.abs(wsad.x_tau - dsad.x_tau)) < TOL
    assert np.max(np.abs(wsad.u_tau - dsad.u_tau)) < TOL
    wz, dz = bn.log_partition(wp, wsad).log_z, bn.log_partition(dp, dsad).log_z
    assert abs(wz - dz) < TOL * abs(dz)


def test_posterior_sd_agrees(case):
    (wp, _, wsad), (dp, _, dsad) = case["wide"], case["dense"]
    sd_w, sd_d = bn.posterior_sd(wp, wsad), bn.posterior_sd(dp, dsad)
    assert np.max(np.abs(sd_w / sd_d - 1.0)) < TOL


def test_marginal_curves_agree(case):
    (wp, wml, wsad), (dp, dml, dsad) = case["wide"], case["dense"]
    sds = bn.posterior_sd(dp, dsad)
    active = wml.active_set[0]
    zero = int(np.flatnonzero(wml.x_hat == 0.0)[0])
    for j in (active, zero):
        # a coarse explicit grid keeps the dense inner solves affordable
        grid = bn.GridSpec(points=dsad.x_tau[j] + np.linspace(-6.0, 6.0, 31) * sds[j])
        for curve, prob, fit in ((bn.marginal_sp, wsad, dsad),
                                 (bn.marginal_ml_approx, wml, dml)):
            wide = curve(wp, prob, j, grid)
            dense = curve(dp, fit, j, grid)
            assert np.max(np.abs(wide.density - dense.density)) < TOL * dense.density.max()


def test_sweep_fallback_agrees(case, monkeypatch):
    # from a warm start outside the box Newton cannot start, so the wide
    # solve sweeps by columns of the design and the dense one by rows of C
    (wp, wml, wsad), (dp, _, _) = case["wide"], case["dense"]
    start = -10.0 * wml.x_hat
    calls = []
    sweep = saddle._sweep

    def counted(problem, x):
        calls.append(problem.low_rank_factor is not None)
        return sweep(problem, x)

    monkeypatch.setattr(saddle, "_sweep", counted)
    wide = bn.solve_saddle(wp, start)
    n_wide = len(calls)
    dense = bn.solve_saddle(dp, start)
    assert n_wide >= 1 and all(calls[:n_wide]) and not any(calls[n_wide:])
    assert wide.converged and dense.converged
    assert np.max(np.abs(wide.x_tau - dense.x_tau)) < TOL
    assert np.max(np.abs(wide.x_tau - wsad.x_tau)) < TOL
    # one sweep by itself, since later Newton steps would mend a wrong one
    x_w, u_w, _ = sweep(wp, start)
    x_d, u_d, _ = sweep(dp, start)
    assert np.max(np.abs(x_w - x_d)) < TOL and np.max(np.abs(u_w - u_d)) < TOL


def test_screened_cross_validation_agrees(monkeypatch):
    # 90 training rows per fold and 150 screened columns: every fold's
    # problem is wide
    rng = np.random.default_rng(63)
    a = rng.standard_normal((100, 400))
    y = a[:, :4] @ np.array([1.0, -0.8, 0.6, 0.4]) + 0.5 * rng.standard_normal(100)
    data = bn.Dataset(responses=y, predictors=a)
    grid = bn.HyperGrid(mus=[0.2, 0.1, 0.05], taus=[1e2, 1e3, 1e4], lam=0.1)
    built = []
    build = hyper.build_problem

    def wide_build(*args):
        prob = build(*args)
        built.append(prob.low_rank_factor is not None)
        return prob

    monkeypatch.setattr(hyper, "build_problem", wide_build)
    wide = bn.cross_validate(data, grid, 10, 3, screen_top=150)
    assert len(built) == 10 and all(built)
    monkeypatch.setattr(hyper, "build_problem", lambda *args: dense_twin(build(*args)))
    dense = bn.cross_validate(data, grid, 10, 3, screen_top=150)
    assert np.isfinite(dense.fold_scores).all()
    assert np.max(np.abs(wide.fold_scores - dense.fold_scores)) < TOL
    assert (wide.best_mu, wide.best_tau) == (dense.best_mu, dense.best_tau)


def _refuse_dense_c(monkeypatch):
    def refuse(self):
        raise AssertionError("the p x p C was built")

    monkeypatch.setattr(bn.PenalizedProblem, "_dense_c", refuse)


def test_wide_chain_matches_its_dense_twin(monkeypatch):
    # the sampler reads a wide problem's partial residuals from the design's
    # columns and forms no C; from the same seed, its chain and the dense
    # twin's agree in every coordinate's mean and variance
    beta = [1.0, -0.8, 0.5] + [0.0] * 77
    std = helpers.random_standardized(64, 30, 80, beta=beta, noise=0.5)
    base = bn.build_problem(std, 0.1, 1.0, 50.0)
    prob = base.with_mu(0.3 * bn.mu_max(base.w))
    dense = dense_twin(prob)
    init = bn.solve_ml(dense).x_hat
    _refuse_dense_c(monkeypatch)
    wide, ref = (bn.run_gibbs(q, init, 3000, seed=7).samples for q in (prob, dense))
    for stat in (lambda s: s, lambda s: (s - s.mean(axis=0)) ** 2):
        a, b = stat(wide), stat(ref)
        se = np.hypot(helpers.batch_se(a), helpers.batch_se(b))
        z = np.abs(a.mean(axis=0) - b.mean(axis=0)) / se
        assert np.all(z <= 4.0), z.max()


def test_wide_chain_memory_is_o_np():
    # a short chain's traced peak, its setup included, stays far below one
    # p x p matrix: 0.7 MB against 7.8 MB measured at 30x1000
    p = 1000
    prob = bn.build_problem(helpers.random_standardized(66, 30, p), 0.1, 0.1, 50.0)
    tracemalloc.start()
    try:
        bn.run_gibbs(prob, np.zeros(p), 2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * p * p / 4


def test_wide_ml_fit_sweeps_blocks_wider_than_n(monkeypatch):
    # from x = 0 at a small mu the first active set is wider than n: the
    # sweeps over it read the design's columns and no |A| x |A| block is made
    std = helpers.random_standardized(65, 40, 300)
    base = bn.build_problem(std, 0.1, 1.0, 1.0)
    prob = base.with_mu(0.02 * bn.mu_max(base.w))
    ref, _, ok = helpers.ml_cd_full_cycle(dense_twin(prob), None, 1e-13)
    assert ok
    _refuse_dense_c(monkeypatch)
    widths, dense_blocks = [], []
    sweep, restrict = bn.mlfit._block_sweep, bn.PenalizedProblem._restrict

    def counted_sweep(rule, w, diag, mu, x):
        widths.append(x.size)
        return sweep(rule, w, diag, mu, x)

    def counted_restrict(self, idx):
        sub = restrict(self, idx)
        if sub.low_rank_factor is None:
            dense_blocks.append(sub.p)
        return sub

    monkeypatch.setattr(bn.mlfit, "_block_sweep", counted_sweep)
    monkeypatch.setattr(bn.PenalizedProblem, "_restrict", counted_restrict)
    tracemalloc.start()
    try:
        ml = bn.solve_ml(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ml.converged
    assert max(widths) > 40
    assert max(dense_blocks, default=0) <= 40
    # the whole fit, n x n cores and design copies included, peaks below
    # one block of the widest swept set (277 KB against 672 KB measured)
    assert peak < 8 * max(widths) ** 2
    assert np.array_equal(np.sign(ml.x_hat), np.sign(ref))
    assert np.max(np.abs(ml.x_hat - ref)) <= 1e-9
