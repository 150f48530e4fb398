"""Exception types shared across the library.

Everything derives from ``WeaselError`` so callers can catch broadly;
the concrete classes exist so tests and the CLI can tell failure modes
apart without string matching.
"""


class WeaselError(Exception):
    """Base class for all library-specific errors."""


class WindowLengthError(WeaselError, ValueError):
    """Window length is outside the range the operation supports."""


class NumericInputError(WeaselError, ValueError):
    """Input contains NaN, Inf, or otherwise unusable numeric values."""


class ShapeError(WeaselError, ValueError):
    """Array or sequence has the wrong length or dimensionality."""


class SelectionError(WeaselError, ValueError):
    """A coefficient index is out of range for the spectrum at hand."""


class InsufficientClassesError(WeaselError, ValueError):
    """An operation that needs two or more classes saw fewer."""


class TooShortError(WeaselError, ValueError):
    """A series is shorter than the smallest configured window."""


class ConfigError(WeaselError, ValueError):
    """Configuration values are inconsistent or out of range."""


class ParseError(WeaselError, ValueError):
    """A data file could not be parsed; message carries file and line."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")
