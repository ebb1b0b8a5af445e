"""Exception hierarchy shared across the package.

`cli.main` maps these onto process exit codes, the `EXIT_*` constants in
cli.py: ConfigError 2, DataError 3, NumericError 4, TensorFormatError 5
(like OSError), any other DivseedError 3.
"""


class DivseedError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DivseedError):
    """Invalid or inconsistent configuration / arguments."""


class DataError(DivseedError):
    """Dataset, manifest, or label problems (missing models, bad tags, ...)."""


class NumericError(DivseedError):
    """Non-finite values encountered where finiteness is guaranteed."""


class TensorFormatError(DivseedError):
    """Malformed tensor file: bad magic, truncation, unsupported dims."""
