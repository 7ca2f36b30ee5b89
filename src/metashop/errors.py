"""Exception hierarchy shared by every module.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError (and subclasses) -> 2, NumericError / ShapeError -> 3.
Malformed input files are DataErrors, including checkpoints with
misshapen or non-finite arrays and feature files whose width does not
match the model, so exit code 3 is left to non-finite losses,
gradients and parameter updates.
"""

from __future__ import annotations


class MetaShopError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MetaShopError):
    """Invalid configuration value or inconsistent option combination."""


def check_at_least(name: str, value: float | None, least: int, optional: bool = False,
                   error: type[MetaShopError] = ConfigError) -> None:
    """``error`` unless ``least <= value`` and finite; None passes if ``optional``."""
    if not (optional if value is None else least <= value < float("inf")):
        raise error(f"{name} must be >= {least}, got {value}")


class DataError(MetaShopError):
    """Malformed, missing, or semantically invalid input data."""


class OutOfVocabularyError(DataError):
    """A categorical value has no row in the relevant embedding table."""


class SamplingError(DataError):
    """A negative-sampling pool is empty or exhausted for some item."""


class ColdUserError(DataError):
    """A user has no purchase history to build a representation from."""


class EmptyBatchError(DataError):
    """A loss or gradient was requested on a batch with no records."""


class NumericError(MetaShopError):
    """A non-finite value appeared where a finite one is required."""


class ShapeError(MetaShopError):
    """Array shapes are inconsistent with the declared architecture."""
