"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError -> 2, EstimationError -> 3.
"""

from __future__ import annotations


class BreaklensError(Exception):
    """Base class for all package errors."""


class ConfigError(BreaklensError):
    """Run configuration failed validation."""


class SpecError(ValueError):
    """An estimator spec field is out of range; ``field`` names the field."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")


def require_choice(field: str, value, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise SpecError(field, f"must be one of {', '.join(choices)}, got {value!r}")


class DataError(BreaklensError):
    """Input data is malformed or insufficient."""


class RecordParseError(DataError):
    """A row of a trade-records file failed validation."""

    def __init__(self, row: int, field: str, message: str):
        self.row = row
        self.field = field
        super().__init__(f"row {row}, field {field!r}: {message}")


class EstimationError(BreaklensError):
    """An estimation step could not be carried out (rank deficiency,
    insufficient observations, singular local design, ...)."""
