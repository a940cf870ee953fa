"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError -> 2, EstimationError -> 3.
"""

from __future__ import annotations

import csv
import math
import numbers
import re
from contextlib import contextmanager


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


def require_integer(field: str, value) -> None:
    """A Python or NumPy integer; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SpecError(field, f"must be an integer, got {value!r}")


def require_number(field: str, value) -> None:
    """A finite integer or float; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecError(field, f"must be a number, got {value!r}")
    if not math.isfinite(value):
        raise SpecError(field, f"must be finite, got {value}")


class DataError(BreaklensError):
    """Input data is malformed or insufficient."""


@contextmanager
def open_csv(path, line):
    """``path`` open as UTF-8 text for a CSV reader, past a leading byte-order
    mark if it has one. A CSV syntax error or a byte that is not UTF-8
    becomes a DataError naming the line: ``line()``, the line the reader has
    reached, or the first undecodable one."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except csv.Error as e:
        raise DataError(f"{path}: line {line()}: {e}") from e
    except UnicodeDecodeError as e:
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            # an undecodable byte reads as a lone surrogate
            bad = next((n for n, text in enumerate(fh, 1) if re.search("[\udc80-\udcff]", text)), None)
        if bad is None:
            raise DataError(f"{path}: changed while being read") from e
        raise DataError(f"{path}: line {bad}: not UTF-8: {e.reason}") from e


class RecordParseError(DataError):
    """A row of a trade-records file failed validation."""

    def __init__(self, row: int, field: str, message: str):
        self.row = row
        self.field = field
        super().__init__(f"row {row}, field {field!r}: {message}")


class EstimationError(BreaklensError):
    """An estimation step could not be carried out (rank deficiency,
    insufficient observations, singular local design, ...)."""
