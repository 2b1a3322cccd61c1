"""Exception types shared across the package.

The CLI maps these onto process exit codes: config and checkpoint errors
(:class:`ConfigError`, :class:`CheckpointError`) exit 2, data errors
(:class:`ParseError`, :class:`VocabularyError`, :class:`DataError`) exit 3,
numerical aborts (:class:`NumericalError`) exit 4, and a failed gradient
check exits 5. :class:`ShapeError` is a programming error and is not mapped.
"""


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
