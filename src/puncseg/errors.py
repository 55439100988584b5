"""Exception and warning types shared across the toolkit, and one argument check.

Every error carries a stable ``code`` string so that tests and the CLI can
match on the failure class without parsing messages.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    code: str = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class SeppParseError(ToolkitError):
    """A malformed SEPP line; ``line_no`` is 1-based and counts every physical line.

    The message reads ``line N: ...``, led by ``where`` (a file's ``<path>: ``).
    """

    def __init__(self, code: str, line_no: int, message: str, where: str = ""):
        self.code = code
        self.line_no = line_no
        super().__init__(f"{where}line {line_no}: {message}")


class EmptyCorpusError(ToolkitError):
    code = "EMPTY_CORPUS"


class TooFewUnitsError(ToolkitError):
    code = "TOO_FEW_UNITS"


class EmptyTrainingSetError(ToolkitError):
    code = "EMPTY_TRAINING_SET"


class EmptyWindowError(ToolkitError):
    code = "EMPTY_WINDOW"


class EmptyStreamError(ToolkitError):
    code = "EMPTY_STREAM"


class ProtocolLengthError(ToolkitError):
    code = "PROTOCOL_LENGTH_MISMATCH"


class ProtocolLabelError(ToolkitError):
    code = "PROTOCOL_BAD_LABEL"


class AdapterTimeoutError(ToolkitError):
    code = "TIMEOUT"


class ProcessDiedError(ToolkitError):
    code = "PROCESS_DIED"


class BadMagicError(ToolkitError):
    code = "BAD_MAGIC"


class VersionMismatchError(ToolkitError):
    code = "VERSION_MISMATCH"


class CorruptModelError(ToolkitError):
    code = "CORRUPT"


class WindowClassifyError(ToolkitError):
    """Classifier failure inside the vote loop, annotated with the window start."""

    code = "WINDOW_CLASSIFY"

    def __init__(self, window_start: int, message: str = ""):
        self.window_start = window_start
        super().__init__(message or f"classifier failed in window starting at word {window_start}")


class LengthMismatchError(ToolkitError, ValueError):
    code = "LENGTH_MISMATCH"


class EmptyMatrixError(ToolkitError):
    code = "EMPTY_MATRIX"


class OutOfRangeError(ToolkitError, ValueError):
    code = "OUT_OF_RANGE"


class TooShortError(ToolkitError):
    code = "TOO_SHORT"


class EmptyScoresError(ToolkitError):
    code = "EMPTY"


class WordMismatchError(ToolkitError):
    """Gold and predicted word columns diverge; ``index`` is the first bad position."""

    code = "WORD_MISMATCH"

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"word columns diverge at token {index}")


class ConfigError(ToolkitError, ValueError):
    code = "CONFIG"


def require_int(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is an int; a bool is not one."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an int, not {value!r}")


class UnwritableWordError(ToolkitError, ValueError):
    """A word that a SEPP file cannot hold as written."""

    code = "UNWRITABLE_WORD"


class EncodingError(ToolkitError):
    """An input file holds bytes that are not UTF-8."""

    code = "NOT_UTF8"


class SeppConsistencyWarning(UserWarning):
    """Column 2 disagrees with the punctuation label on a parsed line."""


class EmptySentenceWarning(UserWarning):
    """A sentence contained only punctuation and produced no tokens."""
