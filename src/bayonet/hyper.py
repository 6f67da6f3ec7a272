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
from dataclasses import dataclass

import numpy as np

from .data import Dataset, apply_standardization, build_problem, standardize
from .errors import AllZeroW, BayonetError, DegenerateDenominator, NotConverged
from .mlfit import solve_ml
from .saddle import tau_path
from .special import RngStream


@dataclass(frozen=True)
class HyperGrid:
    """Candidate (mu, tau) values; mus descending for warm-started paths,
    taus ascending."""

    mus: np.ndarray
    taus: np.ndarray
    lam: float

    def __post_init__(self):
        mus = np.array(self.mus, dtype=float)
        taus = np.array(self.taus, dtype=float)
        if mus.ndim != 1 or mus.size < 1 or np.any(mus <= 0.0):
            raise ValueError("mus must be positive")
        if np.any(np.diff(mus) >= 0.0):
            raise ValueError("mus must be strictly decreasing")
        if taus.ndim != 1 or taus.size < 1 or np.any(taus <= 0.0):
            raise ValueError("taus must be positive")
        if np.any(np.diff(taus) <= 0.0):
            raise ValueError("taus must be strictly increasing")
        if self.lam < 0.0:
            raise ValueError("lam must be nonnegative")
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
    """Pearson correlation; 0.0 when either argument is constant.

    Constant predictions carry no linear association, and returning 0 keeps
    grid search well defined for fully shrunk models.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    da = a - a.mean()
    db = b - b.mean()
    den = math.sqrt(float(da @ da) * float(db @ db))
    if den == 0.0:
        return 0.0
    return float(da @ db) / den


def _screen(std, top):
    # keep the `top` standardized columns most correlated with the response,
    # in index order so downstream slices are deterministic
    w = np.abs(std.predictors.T @ std.responses)
    keep = np.sort(np.argsort(-w, kind="stable")[:top])
    return keep


def cross_validate(data, grid, folds, seed, screen_top=None, tol=1e-10):
    """Grid-search (mu, tau) by k-fold CV with per-fold standardization.

    Every training fold is centered/scaled from scratch and its statistics
    applied to the held-out rows, so no validation information reaches the
    fit.  Within a fold and mu, the tau column is solved as one warm-started
    descending path seeded at the ML minimizer.  A failed cell (solver
    non-convergence or a degenerate fold matrix) scores NaN and simply drops
    out of the medians.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if screen_top is not None and screen_top < 1:
        raise ValueError("screen_top must be >= 1")
    if data.n < folds:
        raise ValueError("more folds than samples")
    rng = RngStream(seed)
    order = rng.permutation(data.n)
    parts = np.array_split(order, folds)
    assignment = np.empty(data.n, dtype=int)
    for f, part in enumerate(parts):
        assignment[part] = f
    n_mu, n_tau = grid.mus.size, grid.taus.size
    scores = np.full((folds, n_mu, n_tau), np.nan)
    taus_desc = list(grid.taus[::-1])
    for f, val_idx in enumerate(parts):
        train_idx = np.concatenate([p for g, p in enumerate(parts) if g != f])
        std = standardize(
            Dataset(
                responses=data.responses[train_idx],
                predictors=data.predictors[train_idx],
            )
        )
        cols = np.arange(data.p)
        if screen_top is not None and screen_top < data.p:
            cols = _screen(std, screen_top)
            std = Dataset(
                responses=std.responses,
                predictors=std.predictors[:, cols],
                standardized=True,
                predictor_offset=std.predictor_offset[cols],
                predictor_scale=std.predictor_scale[cols],
                response_offset=std.response_offset,
                response_scale=std.response_scale,
            )
        a_val = apply_standardization(
            data.predictors[np.ix_(val_idx, cols)],
            std.predictor_offset,
            std.predictor_scale,
        )
        y_val = data.responses[val_idx]
        try:
            base = build_problem(std, grid.lam, grid.mus[0], grid.taus[-1])
        except BayonetError:
            continue
        for i, mu in enumerate(grid.mus):
            prob = base.with_mu(mu)
            try:
                ml = solve_ml(prob, tol=tol)
                if not ml.converged:
                    continue
                sols = tau_path(prob, taus_desc, init=ml.x_hat, tol=tol)
            except BayonetError:
                continue
            for k_desc, sol in enumerate(sols):
                if not sol.converged:
                    continue
                k = n_tau - 1 - k_desc
                pred = a_val @ sol.x_tau * std.response_scale + std.response_offset
                scores[f, i, k] = pearson(y_val, pred)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        median_scores = np.nanmedian(scores, axis=0)
    if np.all(np.isnan(median_scores)):
        raise NotConverged(0, "every grid cell failed")
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
