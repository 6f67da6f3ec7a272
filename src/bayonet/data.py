"""Regression data handling and construction of the penalized problem.

The whole package works on one object: a positive-definite quadratic form C,
a linear term w, an l1 weight mu and an inverse temperature tau.  This module
builds that object from (possibly raw) regression data and owns the
standardization convention every downstream constant relies on: columns are
centered and scaled to squared norm n (not unit variance), which pins the
diagonal of C at 0.5 + lambda exactly.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, SingularMatrix, ZeroVarianceColumn
from .partition import _cholesky

# per column, relative to n, on both the sum and the sum of squares minus n:
# the rounding of a sum of n unit-scale terms grows with n
_STD_TOL = 1e-10
# least pivot^2 / C_jj a Cholesky of C may leave; rounding leaves ~1e-16 there
# when a column is an exact combination of others
_PIVOT_TOL = 1e-12


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _positive(name, values):
    """values, a number or a 1-D sequence of numbers, as a new 1-D float array;
    ValueError unless nonempty and all positive and finite.  The one check of
    mu, tau, tol, their grids and the wide route's lam."""
    if isinstance(values, float) and 0.0 < values < math.inf:
        # the solvers' own scalars, already valid: no round trip to check
        return np.array([values])
    a = np.asarray(values)
    if a.ndim > 1 or a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a number or a 1-D sequence of numbers")
    if a.size == 0:
        raise ValueError(f"{name} is empty")
    a = a.astype(float).reshape(-1)
    if not ((a > 0.0) & (a < math.inf)).all():
        raise ValueError(f"{name} must be positive and finite")
    return a


@dataclass(frozen=True)
class Dataset:
    """Response vector plus predictor matrix, one row per sample.

    When ``standardized`` is set the columns are required to actually satisfy
    the centering/scaling convention, up to _STD_TOL * n on each column's
    sum and on its sum of squares minus n; construction fails otherwise,
    naming the first column that does not.  The offset/scale fields record
    the affine map that produced a standardized dataset so predictions can
    be carried back to the original units.
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
            bad = np.maximum(np.abs(sums), np.abs(sq - n)) > _STD_TOL * n
            if bad.any():
                j = int(np.argmax(bad))
                col = "response" if j == p else f"predictor {j}"
                raise ValueError(f"data marked standardized but {col} fails the check")

    @property
    def n(self):
        return self.predictors.shape[0]

    @property
    def p(self):
        return self.predictors.shape[1]


def _center(v):
    # (v minus its column means, the means) in two passes: one leaves a
    # column far from zero with a mean of about eps * |mean| / sd, which
    # the standardized check can refuse, so that mean is taken off again
    off = v.mean(axis=0)
    vc = v - off
    again = vc.mean(axis=0)
    return vc - again, off + again


def standardize(data):
    """Center every column and rescale to squared norm n; same for the response.

    Returns a new standardized Dataset carrying the offsets and scales that
    were applied; the input is untouched.  Constant columns cannot be scaled
    and raise ZeroVarianceColumn rather than being dropped silently (dropping
    would renumber the remaining coefficients).
    """
    ac, off = _center(data.predictors)
    scale = np.sqrt(np.mean(ac * ac, axis=0))
    for j in np.nonzero(scale == 0.0)[0]:
        raise ZeroVarianceColumn(int(j))
    yc, y_off = _center(data.responses)
    y_scale = float(np.sqrt(np.mean(yc * yc)))
    if y_scale == 0.0:
        raise ZeroVarianceColumn("response")
    return Dataset(
        responses=yc / y_scale,
        predictors=ac / scale,
        standardized=True,
        predictor_offset=_readonly(off),
        predictor_scale=_readonly(scale),
        response_offset=float(y_off),
        response_scale=y_scale,
    )


def apply_standardization(predictors, offset, scale):
    """Map new predictor rows through a previously fitted standardization."""
    return (np.asarray(predictors, dtype=float) - offset) / scale


def _check_scalars(mu, tau, lam):
    _positive("mu", mu)
    _positive("tau", tau)
    if not 0.0 <= lam < math.inf:
        raise ValueError("lam must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class PenalizedProblem:
    """Cost x'Cx - 2w'x + 2mu*||x||_1 at inverse temperature tau.

    C must be symmetric positive definite; a C passed in is verified at
    construction by partition._cholesky and a least-pivot test, either
    failing with SingularMatrix.  mu and tau must be positive and finite,
    lam nonnegative and finite.  lam records the l2 weight used to build C
    from data (it is part of C already and never applied twice).

    When build_problem makes the problem from a dataset with p > n, it
    keeps the standardized design A in low_rank_factor and forms no C:
    C = A'A/(2n) + lam*I (lam > 0) is positive definite by construction,
    the solvers read it through the private accessors (_matvec, _quad,
    _diag, _restrict and the coordinate loops' _partial_residuals)
    at O(np) or less, and partition reduces determinants of C + diagonal
    to an n x n computation; no other module reads the layout.  problem.c
    stays readable: on such a problem it is built by that expression on
    every read and never stored.  A problem holds its fields and nothing
    else: c and w (or w and the design), the scalars and low_rank_factor,
    so a copy is those fields with some swapped.  _restrict keeps the
    design columns only while still wider than n, so the factor is present
    exactly when p > n.  It is not a constructor argument, so it always
    matches C.  == and hash are by identity: a field-wise == would compare
    arrays, and on such a problem build C.
    """

    c: np.ndarray = field(repr=False)
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
        _check_scalars(self.mu, self.tau, self.lam)
        chol = _cholesky(c)
        if np.min(np.diagonal(chol) ** 2 / np.diagonal(c)) < _PIVOT_TOL:
            raise SingularMatrix("C is singular to working precision")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "w", w)

    @classmethod
    def _from_design(cls, a, w, mu, lam, tau):
        # the wide route, whose scalars build_problem checked: C is implicit
        # in the design a and lam > 0, so there is no matrix to scan or factor
        _positive("lam", lam)
        out = object.__new__(cls)
        out.__dict__.update(w=_readonly(w), mu=mu, lam=lam, tau=tau, low_rank_factor=a)
        return out

    def __getattr__(self, name):
        # reached only for attributes never set: the c of a problem that
        # holds its design instead, built on every read
        if name != "c" or self.low_rank_factor is None:
            raise AttributeError(name)
        return self._dense_c()

    def _dense_c(self):
        a = self.low_rank_factor
        n, p = a.shape
        return _readonly(a.T @ a / (2.0 * n) + self.lam * np.eye(p))

    @property
    def p(self):
        return self.w.shape[0]

    @property
    def _diag(self):
        # the diagonal of C; with the design, from its column norms
        f = self.low_rank_factor
        if f is None:
            return np.diagonal(self.c)
        return np.einsum("ij,ij->j", f, f) / (2.0 * f.shape[0]) + self.lam

    def _matvec(self, x):
        """C x, or row by row for a stack of rows x."""
        # (C x')' rather than x C: a single row then takes the vector
        # product's BLAS call, and its rounding
        f = self.low_rank_factor
        if f is None:
            return (self.c @ x.T).T
        return (f.T @ (f @ x.T)).T / (2.0 * f.shape[0]) + self.lam * x

    def _quad(self, x):
        """x'C x."""
        f = self.low_rank_factor
        if f is None:
            return x @ self.c @ x
        s = f @ x
        return s @ s / (2.0 * f.shape[0]) + self.lam * (x @ x)

    def _partial_residuals(self):
        """(dots, own, start, move): the one rule by which a coordinate loop
        reads its partial residuals a_j = w_j - sum_{k != j} C_jk x_k.

        Each sweep takes v = start(x); then a_j = w_j - dots[j](v) + own[j] *
        x_j from the current x, and a move of x_j by dx is followed by
        move(j, dx) unless move is None.  Dense: C's rows, v = x, own =
        diag(C).  With the design A: A's columns, v = A x / (2n) afresh from
        each start, so no rounding builds up over a chain, own = diag(C) -
        lam, and move keeps v current at O(n); no p x p C is formed.
        """
        f = self.low_rank_factor
        if f is None:
            rows = np.ascontiguousarray(self.c)
            own = np.diagonal(rows).tolist()
            return [row.dot for row in rows], own, lambda x: x, None
        cols = np.ascontiguousarray(f.T)
        two_n = 2.0 * f.shape[0]
        s = np.empty(f.shape[0])

        def start(x):
            return np.divide(f @ x, two_n, out=s)

        def move(j, dx):
            np.add(s, cols[j] * (dx / two_n), out=s)

        own = np.einsum("ij,ij->j", f, f) / two_n  # as _diag, less lam
        return [col.dot for col in cols], own.tolist(), start, move

    def _replace(self, **fields):
        # an unchecked copy holding self's fields with `fields` swapped in:
        # the solvers' restrictions and shifted linear terms are built from
        # validated parts.  A wide problem holds no c, so a copy that drops
        # the factor must pass c as well; one that swaps the factor reads
        # its own C from it
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **fields)
        return out

    def _restrict(self, idx):
        """The problem on coordinates idx: the w entries and the principal
        block of C, or while len(idx) > n the design columns in its place."""
        f = self.low_rank_factor
        if f is None:
            idx = np.asarray(idx)
            return self._replace(c=self.c[idx[:, None], idx], w=self.w[idx])
        sub = f[:, idx]
        if len(idx) > f.shape[0]:
            return self._replace(w=self.w[idx], low_rank_factor=sub)
        c = sub.T @ sub / (2.0 * f.shape[0]) + self.lam * np.eye(len(idx))
        return self._replace(c=c, w=self.w[idx], low_rank_factor=None)

    def _with_scalar(self, name, value):
        # C (or the design), w and the factor are shared with self and were
        # validated when it was built; only the new scalar needs checking
        _positive(name, value)
        return self._replace(**{name: value})

    def with_tau(self, tau):
        """Same cost surface at a different inverse temperature."""
        return self._with_scalar("tau", tau)

    def with_mu(self, mu):
        """Same data terms with a different l1 weight."""
        return self._with_scalar("mu", mu)


def build_problem(data, lam, mu, tau):
    """Assemble C = A'A/(2n) + lam*I and w = A'y/(2n) from standardized data.

    lam = 0 is allowed only when n >= p, since C would otherwise be
    rank-deficient by construction.  For p <= n, C is formed and the
    factorization inside PenalizedProblem has the final word, raising
    SingularMatrix on any rank-deficient design.  For p > n the problem
    holds A and lam and forms no C (see PenalizedProblem), so the check is
    analytic: every Cholesky pivot^2 of C is at least lam, and
    SingularMatrix is raised when lam / max_j C_jj, the least pivot ratio
    that leaves, is below the dense check's threshold.
    """
    if not data.standardized:
        raise ValueError("build_problem requires standardized data")
    _check_scalars(mu, tau, lam)
    a = data.predictors
    n, p = a.shape
    if lam == 0.0 and n < p:
        raise SingularMatrix("lam = 0 needs n >= p for C to be invertible")
    if p > n:
        prob = PenalizedProblem._from_design(a, _linear_term(data), mu, lam, tau)
        if lam / float(np.max(prob._diag)) < _PIVOT_TOL:
            raise SingularMatrix("C is singular to working precision")
        return prob
    c = a.T @ a / (2.0 * n) + lam * np.eye(p)
    return PenalizedProblem(c=c, w=_linear_term(data), mu=mu, lam=lam, tau=tau)


def _linear_term(data):
    # w = A'y/(2n); callers that need only w skip forming C
    return data.predictors.T @ data.responses / (2.0 * data.n)


def _cost(problem, x):
    # the penalized cost x'Cx - 2w'x + 2mu*||x||_1; unchecked, shared with
    # the solvers
    w = problem.w
    return float(
        problem._quad(x) - 2.0 * (w @ x) + 2.0 * (problem.mu * np.sum(np.abs(x)))
    )


def _check_init(problem, init, rows=None):
    # a solver's start as a fresh float array: one of length p, or with rows
    # given one of length p per row; ValueError unless finite and that shape
    init = np.array(init, dtype=float)
    shape = (problem.p,) if rows is None else (rows, problem.p)
    if init.shape != shape:
        raise ValueError(f"init must have shape {shape}")
    if not np.isfinite(init).all():
        raise ValueError("init must be finite")
    return init


def _rows_table(reader, header):
    """The per-row reader: the body row by row, through float().

    It names the first faulty line in file order and accepts every cell
    float() takes, quoted numbers and underscores included.
    """
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(
                f"line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        values = []
        for name, cell in zip(header, row):
            try:
                values.append(float(cell))
            except ValueError:
                # float strips the same whitespace str.strip does
                cell = cell.strip()
                what = f"non-numeric value {cell!r}" if cell else "missing value"
                raise ParseError(f"line {lineno}: {what} in {name!r}") from None
        if not all(map(math.isfinite, values)):
            raise ParseError(f"line {lineno}: non-finite value")
        rows.append(values)
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


def _loadtxt_table(fh, width):
    """The rest of fh parsed in C by numpy; None unless it is a finite table
    of the header's width."""
    with warnings.catch_warnings():
        # a body without rows is refused by load_csv, by its row count
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning
        )
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


def load_csv(path, response_column):
    """Read a header-rowed numeric CSV into a raw Dataset.

    The named response column becomes the response; every other column is a
    predictor.  The body is parsed in C by numpy.loadtxt; a body it refuses,
    or one holding a non-finite cell, is read again by the per-row reader,
    which accepts whatever float() does (quoted numbers, underscores) and
    raises a ParseError carrying the 1-based line number of the first faulty
    line for any missing, non-numeric or non-finite cell.  The file is read
    as UTF-8 whatever the locale, and a leading byte-order mark (as Excel's
    "CSV UTF-8" writes) is not part of the first column's name; a file that
    is not UTF-8 raises ParseError.  Returns (dataset, predictor_names).
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError("line 1: empty file") from None
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                raise ParseError("line 1: duplicate column names")
            try:
                y_index = header.index(response_column)
            except ValueError:
                raise ParseError(
                    f"line 1: response column {response_column!r} not found"
                ) from None
            if len(header) < 2:
                raise ParseError("line 1: need at least one predictor column")
            table = _loadtxt_table(fh, len(header))
            if table is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                table = _rows_table(reader, header)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise ParseError(f"not UTF-8 text: {exc.reason} 0x{bad:02x}") from None
    if table.shape[0] < 2:
        raise ParseError("need at least 2 data rows")
    mask = np.ones(len(header), dtype=bool)
    mask[y_index] = False
    names = [h for h, m in zip(header, mask) if m]
    return Dataset(responses=table[:, y_index], predictors=table[:, mask]), names
