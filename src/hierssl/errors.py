"""Exception hierarchy shared by all hierssl modules.

Three broad categories map to CLI exit codes: configuration problems
(exit 2), data problems (exit 3), and training failures (exit 4).
Contract violations (bad level indices, shape mismatches) derive from
the base class directly.
"""


class HiersslError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HiersslError):
    """Invalid configuration value; the message names the offending key."""


class DataError(HiersslError):
    """Problem with input data (files, splits, labels), at its file's line where known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TrainError(HiersslError):
    """Training could not proceed or produced unusable state."""


# -- data errors --------------------------------------------------------


class ParseError(DataError):
    """Malformed file."""


class InconsistentPath(DataError):
    """The same (level, name) appears under two different parents."""


class EmptyInput(DataError):
    """A build or a read was attempted from no data at all, e.g. an empty file."""


class UnknownClass(DataError):
    """A label references a class that does not exist at its level."""


class EmptySplit(DataError):
    """An evaluation split is empty."""


# -- contract errors ----------------------------------------------------


class OutOfRange(HiersslError):
    """A class or level index is outside its valid range."""


class LevelOrder(HiersslError):
    """Levels were passed in the wrong coarse/fine order."""


class DimensionMismatch(HiersslError):
    """Array shapes do not line up."""


class ArchitectureMismatch(HiersslError):
    """Two models that must share an architecture do not."""


# -- training errors ----------------------------------------------------


class NonFiniteGradient(TrainError):
    """A gradient contained NaN or Inf; aborts the run with diagnostics."""
