"""Exception hierarchy shared by all bayonet modules."""


class BayonetError(Exception):
    """Base class for every error raised by this package."""


class NumericalError(BayonetError):
    """A computation failed numerically; the CLI exits 3 on any subclass."""


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


class NoAdmissibleRoot(NumericalError):
    """No cubic root gave an interior dual value; indicates a numerical bug."""


class TransitionValue(NumericalError):
    """The l1 weight sits exactly at a coordinate's inclusion boundary."""

    def __init__(self, coordinate):
        self.coordinate = coordinate
        super().__init__(
            f"coordinate {coordinate} is at a transition point; "
            "the zero-temperature formula is invalid here"
        )


class AllZeroW(NumericalError):
    """The linear coefficient vector is identically zero."""


class DegenerateDenominator(NumericalError):
    """The inverse-temperature estimate divides by an underflowed value."""


class NumericalOverflow(NumericalError):
    """A partition-function component left the finite floating-point range."""


class ConfigError(BayonetError):
    """Inconsistent or invalid command-line configuration."""
