"""Hyperparameter machinery: grids, inverse-temperature estimate, CV harness.

The l1 grid hangs off mu_max = max_j |w_j| (the smallest weight that zeroes
the whole ML solution); the inverse-temperature grid is geometric with ratio
10^0.25.  The first-order posterior-maximum estimate of tau needs only the
ML fit and the data-scale residual.  Cross-validation re-standardizes inside
every training fold and scores held-out predictions by Pearson correlation
on the original response scale.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, _positive, apply_standardization, build_problem, standardize
from .errors import AllZeroW, BayonetError, DegenerateDenominator, NotConverged
from .mlfit import solve_ml
from .saddle import tau_path
from .special import RngStream


@dataclass(frozen=True)
class HyperGrid:
    """Candidate (mu, tau) values; mus descending, taus ascending.

    cross_validate fits the mus in order, each ML fit from the previous
    mu's minimizer, and solves a fold's whole grid as one lockstep
    tau_path, every (mu, tau) cell from its mu's ML minimizer."""

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
    if w.size == 0 or np.all(w == 0.0):
        raise AllZeroW("w has no nonzero entry")
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
        + 2.0 * mu * float(np.sum(np.abs(x)))
    )
    if den < 1e-300:
        raise DegenerateDenominator(
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


def _fold_scores(data, grid, train_idx, val_idx, screen_top, tol):
    """One fold's (n_mu, n_tau) block of held-out scores, NaN where a
    cell's lane or its mu's ML fit did not converge."""
    std = standardize(
        Dataset(
            responses=data.responses[train_idx],
            predictors=data.predictors[train_idx],
        )
    )
    cols = np.arange(data.p)
    if screen_top is not None and screen_top < data.p:
        cols = _screen(std, screen_top)
        std = replace(
            std,
            predictors=std.predictors[:, cols],
            predictor_offset=std.predictor_offset[cols],
            predictor_scale=std.predictor_scale[cols],
        )
    a_val = apply_standardization(
        data.predictors[np.ix_(val_idx, cols)],
        std.predictor_offset,
        std.predictor_scale,
    )
    base = build_problem(std, grid.lam, grid.mus[0], grid.taus[-1])
    block = np.full((grid.mus.size, grid.taus.size), np.nan)
    rows, inits = [], []
    for i, mu in enumerate(grid.mus):
        start = inits[-1] if inits else None
        ml = solve_ml(base.with_mu(mu), tol=tol, init=start)
        if ml.converged:
            rows.append(i)
            inits.append(ml.x_hat)
    if not rows:
        return block
    sols = tau_path(base, grid.taus, init=np.array(inits), tol=tol, mus=grid.mus[rows])
    # one column of predictions per cell, in grid order
    x = np.array([sol.x_tau for sol in sols])
    pred = a_val @ x.T * std.response_scale + std.response_offset
    ok = np.array([sol.converged for sol in sols])
    r = np.where(ok, pearson(data.responses[val_idx], pred), np.nan)
    block[rows] = r.reshape(len(rows), grid.taus.size)
    return block


def cross_validate(data, grid, folds, seed, screen_top=None, tol=1e-10):
    """Grid-search (mu, tau) by k-fold CV with per-fold standardization.

    Every training fold is centered/scaled from scratch and its statistics
    applied to the held-out rows, so no validation information reaches the
    fit.  Within a fold the ML fits run down the descending mus, each from
    the previous converged minimizer (glmnet's pathwise warm start), and the
    whole (mu, tau) grid is then solved as one lockstep tau_path, every cell
    from its mu's ML minimizer.  Failed scores are NaN and simply drop out
    of the medians: a fold that cannot be standardized, built or solved
    loses its fold, a mu whose ML fit does not converge its row, and a lane
    that does not converge its cell; when every cell fails, the
    NotConverged raised names the last fold error, if any.  folds runs from
    2 to n // 2: a held-out fold of one row would score every cell 0, the
    Pearson r of one point.
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
    raised = None
    for f, val_idx in enumerate(parts):
        train_idx = np.concatenate([p for g, p in enumerate(parts) if g != f])
        try:
            scores[f] = _fold_scores(data, grid, train_idx, val_idx, screen_top, tol)
        except BayonetError as exc:
            raised = exc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        median_scores = np.nanmedian(scores, axis=0)
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
