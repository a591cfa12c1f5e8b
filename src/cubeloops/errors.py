"""Exception hierarchy shared by all cubeloops modules.

Word-validation failures carry a ``condition`` label naming the violated
requirement; the CLI surfaces that label verbatim so scripted callers can
match on it.
"""

from __future__ import annotations


class CubeLoopsError(Exception):
    """Base class for every error raised by this package."""


class WordValidationError(CubeLoopsError, ValueError):
    """An edge word failed one of the Jordan-path requirements."""

    condition = "Invalid"


class BadLabelError(WordValidationError):
    condition = "BadLabel"


class OddLengthError(WordValidationError):
    condition = "OddLength"


class NotClosedError(WordValidationError):
    condition = "NotClosed"


class MissingDirectionError(WordValidationError):
    condition = "MissingDirection"


class NotEmbeddedError(WordValidationError):
    condition = "NotEmbedded"


class DimensionMismatchError(CubeLoopsError, ValueError):
    """Two group elements of different dimensions were combined."""


class QuotientDomainError(CubeLoopsError, ValueError):
    """An ambient element outside the quotient's domain was projected.

    Projection is defined only on elements whose translation parity equals
    the sign-flip pattern and whose flips lie in the admissible subgroup.
    """


class NotParallelError(CubeLoopsError, ValueError):
    """The two edges handed to a pair operation point in different directions."""


class SameEdgeError(CubeLoopsError, ValueError):
    """A pair operation needs two distinct edges."""


class BadParametersError(CubeLoopsError, ValueError):
    """Family parameters outside their admissible range."""


class BadProjectionError(CubeLoopsError, ValueError):
    """A mesh projection does not reduce the coordinates to exactly three."""


class UnsupportedFormatError(CubeLoopsError, ValueError):
    """An unknown mesh export format was requested."""


class BudgetExceededError(CubeLoopsError, ValueError):
    """A closure's patches would place more coordinates than the budget."""


class InternalInvariantError(CubeLoopsError, RuntimeError):
    """Two independent computations of the same fact disagreed.

    This is never a user error: it signals a defect in the package itself
    (the CLI maps it to exit code 1).
    """
