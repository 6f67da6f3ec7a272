"""Hyperparameter machinery: grids, inverse-temperature estimate, CV harness.

The l1 grid hangs off mu_max = max_j |w_j| (the smallest weight that zeroes
the whole ML solution); the inverse-temperature grid is geometric with ratio
10^0.25.  The first-order posterior-maximum estimate of tau needs only the
ML fit and the data-scale residual.  Cross-validation re-standardizes inside
every training fold and scores held-out predictions by Pearson correlation
on the original response scale.  Its solves are two stacks: the ML path
(_ml_path) walks every fold's mus at once, one mlfit._ml_stack call per mu
over one lane per fold, and one tau_path solves every fold's (mu, tau)
grid from those minimizers.  The convergence verb's ML path is the one-lane
case.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    Dataset, PenalizedProblem, _positive, apply_standardization, build_problem, standardize,
)
from .errors import BayonetError, NotConverged, NumericalError
from .mlfit import _ml_stack
# no hyper function calls solve_ml; the binding stays because
# perfbench/tracing.py wraps hyper.solve_ml by name
from .mlfit import solve_ml  # noqa: F401
from .saddle import tau_path
from .special import RngStream


@dataclass(frozen=True)
class HyperGrid:
    """Candidate (mu, tau) values; mus descending, taus ascending.

    cross_validate fits every fold down the mus as one lockstep ML path,
    one lane per fold, then solves every fold's whole grid as one lockstep
    tau_path, one problem per fold, every (mu, tau) cell from its mu's
    minimizer on its fold's lane."""

    mus: np.ndarray
    taus: np.ndarray
    lam: float

    def __post_init__(self):
        mus = _positive("mus", self.mus)
        taus = _positive("taus", self.taus)
        if np.any(np.diff(mus) >= 0.0):
            raise ValueError("mus must be strictly decreasing")
        if np.any(np.diff(taus) <= 0.0):
            raise ValueError("taus must be strictly increasing")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lam must be nonnegative and finite")
        mus.setflags(write=False)
        taus.setflags(write=False)
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "taus", taus)


@dataclass(frozen=True)
class CvReport:
    """Cross-validation scores over a hyperparameter grid.

    fold_scores[f, i, k] is the Pearson correlation of fold f's held-out
    predictions at (mus[i], taus[k]); cells whose solver failed hold NaN.
    median_scores is the fold-wise nanmedian and (best_mu, best_tau) its
    argmax.  fold_assignment maps every sample to its held-out fold.
    """

    mus: np.ndarray
    taus: np.ndarray
    lam: float
    folds: int
    seed: int
    fold_assignment: np.ndarray
    fold_scores: np.ndarray
    median_scores: np.ndarray
    best_mu: float
    best_tau: float
    best_median: float


def mu_max(w):
    """Smallest l1 weight at which the penalized ML solution is all zero."""
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("w must be finite")
    if w.size == 0 or np.all(w == 0.0):
        raise NumericalError("w has no nonzero entry")
    return float(np.max(np.abs(w)))


def mu_grid(mu_max, count, ratio):
    """Geometric l1-weight grid mu_max * ratio^((count+1-n)/count), n=1..count.

    Ascending in n; the largest value is mu_max * ratio^(1/count), strictly
    below mu_max, so every grid point admits a nonempty active set in
    generic problems.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    n = np.arange(1, count + 1, dtype=float)
    return mu_max * ratio ** ((count + 1.0 - n) / count)


def tau_grid(offset, count):
    """Geometric inverse-temperature grid 10^(0.25*(m + offset - 1)), m=1..count."""
    if offset < 1 or count < 1:
        raise ValueError("offset and count must be >= 1")
    # refused before any power is taken, so numpy cannot warn of overflow
    if offset + count - 1 > 4.0 * math.log10(np.finfo(float).max):
        raise ValueError("tau grid overflows: its largest value is not finite")
    m = np.arange(1, count + 1, dtype=float)
    return 10.0 ** (0.25 * (m + offset - 1.0))


def default_grid(w, lam):
    """Standard 10-point mu grid (ratio 0.01) by 13-point tau grid 1e3..1e6."""
    mus = mu_grid(mu_max(w), 10, 0.01)[::-1].copy()
    return HyperGrid(mus=mus, taus=tau_grid(12, 13), lam=lam)


def map_tau(data, lam, mu, ml):
    """First-order posterior-maximum estimate of the inverse temperature.

    tau = (p + n/2) / (||y - A x_hat||^2/(2n) + lam*||x_hat||^2
                       + 2*mu*||x_hat||_1)
    evaluated on standardized data with the converged ML fit for (lam, mu).
    """
    if not data.standardized:
        raise ValueError("map_tau requires standardized data")
    if not ml.converged:
        raise NotConverged(ml.cycles, "ML solution not converged")
    x = ml.x_hat
    if x.shape != (data.p,):
        raise ValueError("ML solution does not match the data's p")
    resid = data.responses - data.predictors @ x
    den = (
        float(resid @ resid) / (2.0 * data.n)
        + lam * float(x @ x)
        + 2.0 * (mu * float(np.sum(np.abs(x))))
    )
    if den < 1e-300:
        raise NumericalError(
            "perfect fit with no penalty; tau estimate diverges"
        )
    return (data.p + data.n / 2.0) / den


def pearson(a, b):
    """Pearson correlation of a with b, or with each column of a 2-D b.

    A constant argument gives 0.0: constant predictions carry no linear
    association, and returning 0 keeps grid search well defined for fully
    shrunk models.  A 1-D b gives a float, a 2-D b an array of one
    correlation per column.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    da = a - a.mean()
    db = b - b.mean(axis=0)
    den = np.sqrt(float(da @ da) * (db * db).sum(axis=0))
    out = np.divide(da @ db, den, out=np.zeros(den.shape), where=den != 0.0)
    return float(out) if b.ndim == 1 else out


def _screen(std, top):
    # keep the `top` standardized columns most correlated with the response,
    # in index order so downstream slices are deterministic
    w = np.abs(std.predictors.T @ std.responses)
    keep = np.sort(np.argsort(-w, kind="stable")[:top])
    return keep


def _ml_path(bases, mus, tol):
    """Every lane's ML fits down the mus: glmnet's pathwise warm start.

    Lane k is bases[k], a fold's problem in cross_validate, convergence's
    one problem there.  The lanes walk the mus once, from the largest:
    at each mu one _ml_stack call fits every lane at that mu, each from its
    own last converged minimizer, cold at first, so each lane's fits equal
    solve_ml's down its own mus from those starts, bit for bit.  A fit that
    does not converge starts no later fit of its lane.  Returns one list
    per lane of one (x, cycles, converged) per mu, in the mus' order.
    """
    _positive("tol", tol)
    fits = [[None] * len(mus) for _ in bases]
    warm = [None] * len(bases)
    for i in sorted(range(len(mus)), key=lambda i: -mus[i]):
        for k, fit in enumerate(_ml_stack(bases, warm, mus[i], tol)):
            fits[k][i] = fit
            if fit[2]:
                warm[k] = fit[0]
    return fits


@dataclass(frozen=True)
class _Fold:
    """A training fold's problem, and for scoring the held-out predictors,
    standardized as the training rows were, their responses and the
    training response's scale and offset; once _ml_path has run, the grid
    rows whose fit converged and their minimizers."""

    base: PenalizedProblem
    a_val: np.ndarray
    y_val: np.ndarray
    response_scale: float
    response_offset: float
    rows: list = ()
    inits: np.ndarray = None


def _fold_problem(data, grid, train_idx, val_idx, screen_top):
    """A fold's _Fold before its ML fits: its training rows standardized,
    screened and built into a problem."""
    std = standardize(
        Dataset(
            responses=data.responses[train_idx],
            predictors=data.predictors[train_idx],
        )
    )
    a_val = data.predictors[val_idx]
    if screen_top is not None and screen_top < data.p:
        cols = _screen(std, screen_top)
        std = replace(
            std,
            predictors=std.predictors[:, cols],
            predictor_offset=std.predictor_offset[cols],
            predictor_scale=std.predictor_scale[cols],
        )
        a_val = a_val[:, cols]
    a_val = apply_standardization(a_val, std.predictor_offset, std.predictor_scale)
    base = build_problem(std, grid.lam, grid.mus[0], grid.taus[-1])
    return _Fold(base, a_val, data.responses[val_idx], std.response_scale,
                 std.response_offset)


def _fold_paths(grid, folds, tol, errors):
    """{f: the lanes of fold f} for every fold of folds, a {f: _Fold} of
    folds with rows, from one tau_path whose rows each carry their fold's
    problem.  Should it raise, each fold is solved alone, and one that
    raises then is left out, its error put in errors[f]."""
    fits = list(folds.values())
    try:
        sols = tau_path(
            [fit.base for fit in fits for _ in fit.rows], grid.taus,
            init=np.concatenate([fit.inits for fit in fits]), tol=tol,
            mus=np.concatenate([grid.mus[fit.rows] for fit in fits]),
        )
    except BayonetError:
        out = {}
        for f, fit in folds.items():
            try:
                out[f] = tau_path(fit.base, grid.taus, init=fit.inits, tol=tol,
                                  mus=grid.mus[fit.rows])
            except BayonetError as exc:
                errors[f] = exc
        return out
    out, at = {}, 0
    for f, fit in folds.items():
        k = len(fit.rows) * grid.taus.size
        out[f], at = sols[at:at + k], at + k
    return out


def _fold_scores(grid, fit, sols):
    """A fold's (n_mu, n_tau) block of held-out scores from its lanes, NaN
    where a cell's lane or its mu's fit on _ml_path did not converge."""
    block = np.full((grid.mus.size, grid.taus.size), np.nan)
    # one column of predictions per cell, in grid order
    x = np.array([sol.x_tau for sol in sols])
    pred = fit.a_val @ x.T * fit.response_scale + fit.response_offset
    ok = np.array([sol.converged for sol in sols])
    r = np.where(ok, pearson(fit.y_val, pred), np.nan)
    block[fit.rows] = r.reshape(len(fit.rows), grid.taus.size)
    return block


def _nanmedian(scores):
    """Median over axis 0 of the entries that are not NaN, NaN where none
    is: np.nanmedian's bytes, the two middle entries summed as one
    reduction and halved, without the numpy.ma import that its route for
    short axes makes."""
    ranked = np.sort(scores, axis=0)  # NaNs last
    count = np.count_nonzero(~np.isnan(scores), axis=0)[None]
    middle = np.concatenate([np.maximum(count - 1, 0) // 2, count // 2])
    return np.take_along_axis(ranked, middle, axis=0).sum(axis=0) / 2.0


def cross_validate(data, grid, folds, seed, screen_top=None, tol=1e-10):
    """Grid-search (mu, tau) by k-fold CV with per-fold standardization.

    Every training fold is centered/scaled from scratch and its statistics
    applied to the held-out rows, so no validation information reaches the
    fit.  Every fold's problem is made first.  Then one _ml_path fits
    every fold down the mus, one lane per fold, each lane's fits those of a
    solve_ml chain down its fold's mus, bit for bit; and the whole (mu, tau)
    grid of every fold is one lockstep tau_path, one problem per fold,
    every cell from its mu's ML minimizer.  Each lane takes the iterates it
    would in a tau_path of its fold alone, and should the stacked call
    raise, each fold is solved alone, so a failure costs only its own fold.
    Failed scores are NaN and simply drop out of the medians: a fold that
    cannot be standardized, built or solved loses its fold, a mu whose ML
    fit does not converge its row, and a lane that does not converge its
    cell; when every cell fails, the NotConverged raised names the last
    failed fold's error, if any.
    folds runs from 2 to n // 2: a held-out fold of one row would score
    every cell 0, the Pearson r of one point.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if screen_top is not None and screen_top < 1:
        raise ValueError("screen_top must be >= 1")
    if folds > data.n // 2:
        raise ValueError("each held-out fold needs at least 2 samples")
    rng = RngStream(seed)
    order = rng.permutation(data.n)
    parts = np.array_split(order, folds)
    assignment = np.empty(data.n, dtype=int)
    for f, part in enumerate(parts):
        assignment[part] = f
    scores = np.full((folds, grid.mus.size, grid.taus.size), np.nan)
    built, errors = {}, {}
    for f, val_idx in enumerate(parts):
        train_idx = np.concatenate([p for g, p in enumerate(parts) if g != f])
        try:
            built[f] = _fold_problem(data, grid, train_idx, val_idx, screen_top)
        except BayonetError as exc:
            errors[f] = exc
    fits = {}
    paths = _ml_path([fold.base for fold in built.values()], grid.mus, tol)
    for (f, fold), path in zip(built.items(), paths):
        rows = [i for i, (_, _, ok) in enumerate(path) if ok]
        if rows:
            fits[f] = replace(fold, rows=rows, inits=np.array([path[i][0] for i in rows]))
    if fits:
        for f, sols in _fold_paths(grid, fits, tol, errors).items():
            scores[f] = _fold_scores(grid, fits[f], sols)
    raised = errors[max(errors)] if errors else None
    median_scores = _nanmedian(scores)
    if np.all(np.isnan(median_scores)):
        cause = "" if raised is None else f"; a fold raised: {raised}"
        raise NotConverged(0, f"every grid cell failed{cause}") from raised
    flat = np.nanargmax(median_scores)
    bi, bk = np.unravel_index(flat, median_scores.shape)
    return CvReport(
        mus=grid.mus,
        taus=grid.taus,
        lam=grid.lam,
        folds=folds,
        seed=int(seed),
        fold_assignment=assignment,
        fold_scores=scores,
        median_scores=median_scores,
        best_mu=float(grid.mus[bi]),
        best_tau=float(grid.taus[bk]),
        best_median=float(median_scores[bi, bk]),
    )
