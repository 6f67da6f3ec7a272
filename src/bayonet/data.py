"""Regression data handling and construction of the penalized problem.

The whole package works on one object: a positive-definite quadratic form C,
a linear term w, an l1 weight mu and an inverse temperature tau.  This module
builds that object from (possibly raw) regression data and owns the
standardization convention every downstream constant relies on: columns are
centered and scaled to squared norm n (not unit variance), which pins the
diagonal of C at 0.5 + lambda exactly.
"""

import copy
import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from .errors import ParseError, SingularC, ZeroVarianceColumn

_STD_TOL = 1e-10  # absolute, per column, on both the sum and sum of squares
# least pivot^2 / C_jj a Cholesky of C may leave; rounding leaves ~1e-16 there
# when a column is an exact combination of others
_PIVOT_TOL = 1e-12


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Response vector plus predictor matrix, one row per sample.

    When ``standardized`` is set the columns are required to actually satisfy
    the centering/scaling convention; construction fails otherwise.  The
    offset/scale fields record the affine map that produced a standardized
    dataset so predictions can be carried back to the original units.
    """

    responses: np.ndarray
    predictors: np.ndarray
    standardized: bool = False
    predictor_offset: np.ndarray | None = None
    predictor_scale: np.ndarray | None = None
    response_offset: float | None = None
    response_scale: float | None = None

    def __post_init__(self):
        y = _readonly(self.responses)
        a = _readonly(self.predictors)
        if y.ndim != 1 or a.ndim != 2:
            raise ValueError("responses must be 1-D, predictors 2-D")
        n, p = a.shape
        if y.shape[0] != n:
            raise ValueError("responses and predictors disagree on n")
        if n < 2 or p < 1:
            raise ValueError("need n >= 2 samples and p >= 1 predictors")
        if not (np.isfinite(y).all() and np.isfinite(a).all()):
            raise ValueError("non-finite values in data")
        object.__setattr__(self, "responses", y)
        object.__setattr__(self, "predictors", a)
        if self.standardized:
            cols = np.column_stack([a, y])
            sums = cols.sum(axis=0)
            sq = (cols * cols).sum(axis=0)
            if np.max(np.abs(sums)) > _STD_TOL or np.max(np.abs(sq - n)) > _STD_TOL:
                raise ValueError("data marked standardized but fails the check")

    @property
    def n(self):
        return self.predictors.shape[0]

    @property
    def p(self):
        return self.predictors.shape[1]


def standardize(data):
    """Center every column and rescale to squared norm n; same for the response.

    Returns a new standardized Dataset carrying the offsets and scales that
    were applied; the input is untouched.  Constant columns cannot be scaled
    and raise ZeroVarianceColumn rather than being dropped silently (dropping
    would renumber the remaining coefficients).
    """
    a = data.predictors
    y = data.responses
    off = a.mean(axis=0)
    ac = a - off
    scale = np.sqrt(np.mean(ac * ac, axis=0))
    for j in np.nonzero(scale == 0.0)[0]:
        raise ZeroVarianceColumn(int(j))
    y_off = float(y.mean())
    yc = y - y_off
    y_scale = float(np.sqrt(np.mean(yc * yc)))
    if y_scale == 0.0:
        raise ZeroVarianceColumn("response")
    return Dataset(
        responses=yc / y_scale,
        predictors=ac / scale,
        standardized=True,
        predictor_offset=_readonly(off),
        predictor_scale=_readonly(scale),
        response_offset=y_off,
        response_scale=y_scale,
    )


def apply_standardization(predictors, offset, scale):
    """Map new predictor rows through a previously fitted standardization."""
    return (np.asarray(predictors, dtype=float) - offset) / scale


@dataclass(frozen=True)
class PenalizedProblem:
    """Cost x'Cx - 2w'x + 2mu*||x||_1 at inverse temperature tau.

    C must be symmetric positive definite; this is verified by a Cholesky
    factorization at construction.  mu and tau must be positive and finite.
    lam records the l2 weight used to build C from data (it is part of C
    already and never applied twice).  When build_problem makes the problem
    from a dataset with p > n, it keeps the design matrix C was built from
    in low_rank_factor, so determinants of C + diagonal can be reduced to an
    n x n computation; it is not a constructor argument, so it always
    matches C.
    """

    c: np.ndarray
    w: np.ndarray
    mu: float
    lam: float
    tau: float
    low_rank_factor: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        c = _readonly(self.c)
        w = _readonly(self.w)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("C must be a square matrix")
        if w.shape != (c.shape[0],):
            raise ValueError("w length must match C")
        if not (np.isfinite(c).all() and np.isfinite(w).all()):
            raise ValueError("non-finite C or w")
        scale = max(1.0, float(np.max(np.abs(c))))
        if float(np.max(np.abs(c - c.T))) > 1e-12 * scale:
            raise ValueError("C is not symmetric")
        for name in ("mu", "tau"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.lam < 0.0:
            raise ValueError("lam must be nonnegative")
        try:
            chol = sla.cholesky(c, lower=True)
        except sla.LinAlgError as exc:
            raise SingularC(str(exc)) from None
        if np.min(np.diagonal(chol) ** 2 / np.diagonal(c)) < _PIVOT_TOL:
            raise SingularC("C is singular to working precision")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "w", w)

    @property
    def p(self):
        return self.w.shape[0]

    def _with_scalar(self, name, value):
        # C, w and the factor are shared with self and were validated when
        # it was built; only the new scalar needs checking
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
        out = copy.copy(self)
        object.__setattr__(out, name, value)
        return out

    def with_tau(self, tau):
        """Same cost surface at a different inverse temperature."""
        return self._with_scalar("tau", tau)

    def with_mu(self, mu):
        """Same data terms with a different l1 weight."""
        return self._with_scalar("mu", mu)


def build_problem(data, lam, mu, tau):
    """Assemble C = A'A/(2n) + lam*I and w = A'y/(2n) from standardized data.

    lam = 0 is allowed only when n >= p, since C would otherwise be
    rank-deficient by construction; the factorization inside
    PenalizedProblem still has the final word and raises SingularC on any
    rank-deficient design.
    """
    if not data.standardized:
        raise ValueError("build_problem requires standardized data")
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    a = data.predictors
    n, p = a.shape
    if lam == 0.0 and n < p:
        raise SingularC("lam = 0 needs n >= p for C to be invertible")
    c = a.T @ a / (2.0 * n) + lam * np.eye(p)
    prob = PenalizedProblem(c=c, w=_linear_term(data), mu=mu, lam=lam, tau=tau)
    if p > n:
        object.__setattr__(prob, "low_rank_factor", a)
    return prob


def _linear_term(data):
    # w = A'y/(2n); callers that need only w skip forming C
    return data.predictors.T @ data.responses / (2.0 * data.n)


def _cost_arrays(c, w, mu, x):
    # shared by the solvers, which work on raw arrays
    return float(x @ c @ x - 2.0 * (w @ x) + 2.0 * mu * np.sum(np.abs(x)))


def cost_h(problem, x):
    """Evaluate the penalized cost x'Cx - 2w'x + 2mu*||x||_1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.p,):
        raise ValueError(f"x must have length {problem.p}")
    return _cost_arrays(problem.c, problem.w, problem.mu, x)


def load_csv(path, response_column):
    """Read a header-rowed numeric CSV into a raw Dataset.

    The named response column becomes the response; every other column is a
    predictor.  Any missing or non-numeric cell is a ParseError carrying the
    1-based line number.  Returns (dataset, predictor_names).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("line 1: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise ParseError("line 1: duplicate column names")
        try:
            y_col = header.index(response_column)
        except ValueError:
            raise ParseError(
                f"line 1: response column {response_column!r} not found"
            ) from None
        if len(header) < 2:
            raise ParseError("line 1: need at least one predictor column")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            vals = []
            for name, cell in zip(header, row):
                cell = cell.strip()
                if not cell:
                    raise ParseError(f"line {lineno}: missing value in {name!r}")
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"line {lineno}: non-numeric value {cell!r} in {name!r}"
                    ) from None
            if not all(math.isfinite(v) for v in vals):
                raise ParseError(f"line {lineno}: non-finite value")
            rows.append(vals)
    if len(rows) < 2:
        raise ParseError("need at least 2 data rows")
    table = np.array(rows, dtype=float)
    mask = np.ones(len(header), dtype=bool)
    mask[y_col] = False
    names = [h for h, m in zip(header, mask) if m]
    return Dataset(responses=table[:, y_col], predictors=table[:, mask]), names
