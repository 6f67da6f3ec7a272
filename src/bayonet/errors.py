"""Exception hierarchy shared by all bayonet modules.

Six classes, and the CLI exit code each one maps to:

- ``BayonetError``: the base of the other five; never raised itself.
- ``ParseError`` and ``ZeroVarianceColumn``: the input file cannot be
  read or standardized; exit 2, as for an ``OSError``.
- ``NumericalError``: a computation failed numerically; exit 3.  It is
  raised directly, with a message that names what failed, and through
  its two subclasses ``NotConverged`` and ``SingularMatrix``.

A bad argument or configuration is a plain ``ValueError``; exit 4.
"""


class BayonetError(Exception):
    """Base class for every error raised by this package."""


class NumericalError(BayonetError):
    """A computation failed numerically; the CLI exits 3 on it and on any
    subclass."""


class ParseError(BayonetError):
    """Malformed input file (bad number, missing value, bad header)."""


class ZeroVarianceColumn(BayonetError):
    """A data column is constant and cannot be standardized."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"column {column!r} has zero variance")


class SingularMatrix(NumericalError):
    """A Cholesky factorization failed: the quadratic coefficient matrix C,
    or a C + D behind a determinant or a solve, is not positive definite
    to working precision."""


class NotConverged(NumericalError):
    """An iterative solver hit its cycle budget before reaching tolerance."""

    def __init__(self, cycles, detail=""):
        self.cycles = cycles
        msg = f"no convergence after {cycles} cycles"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
