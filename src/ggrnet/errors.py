"""Exception types shared across the package.

The CLI maps these onto process exit codes: config and checkpoint errors
and outputs that cannot be written (:class:`ConfigError`,
:class:`CheckpointError`, :class:`OutputError`) exit 2, data errors
(:class:`ParseError`, :class:`VocabularyError`, :class:`DataError`) exit 3,
numerical aborts (:class:`NumericalError`) exit 4, and a failed gradient
check exits 5. :class:`ShapeError` is a programming error and is not mapped.
"""
import contextlib


class GgrnetError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GgrnetError, ValueError):
    """Tensor shapes do not conform for the attempted operation."""


class NumericalError(GgrnetError, ArithmeticError):
    """A non-finite value (NaN/Inf) was produced or a run diverged."""


class ParseError(GgrnetError, ValueError):
    """Malformed input file; the message carries a line or record position."""


class VocabularyError(GgrnetError, ValueError):
    """An element symbol is not part of the configured vocabulary."""


class DataError(GgrnetError, ValueError):
    """Dataset-level problem: empty split, missing target, zero variance."""


class ConfigError(GgrnetError, ValueError):
    """Unusable run configuration: unknown key, bad value, missing field."""


class CheckpointError(GgrnetError, ValueError):
    """Checkpoint file is corrupt, truncated, or incompatible."""


class OutputError(GgrnetError, OSError):
    """A result file or stream cannot be written."""


@contextlib.contextmanager
def writing(target):
    """Raise an ``OSError`` from the block as an :class:`OutputError` that
    names ``target`` and the system's reason; a closed pipe's is left as it is."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as err:
        raise OutputError(f"{target}: cannot write: {err.strerror or err}") from err
