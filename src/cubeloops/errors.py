"""Exception hierarchy shared by all cubeloops modules.

Each class names the condition that failed; the CLI prints that name
without its ``Error`` suffix (``NotClosed``, ``BadLabel``, ...) ahead of
the message, so scripted callers can match on it.
"""

from __future__ import annotations


class CubeLoopsError(Exception):
    """Base class for every error raised by this package."""


class WordValidationError(CubeLoopsError, ValueError):
    """An edge word failed one of the Jordan-path requirements."""


class BadLabelError(WordValidationError):
    """An empty word, a label outside 1..dim, or text that is not a label."""


class OddLengthError(WordValidationError):
    """The word has odd length, so the walk cannot close."""


class NotClosedError(WordValidationError):
    """Some direction is used an odd number of times."""


class MissingDirectionError(WordValidationError):
    """Some direction of the cube is never used."""


class NotEmbeddedError(WordValidationError):
    """The walk revisits a vertex, so the loop is not simple."""


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
