"""Gap-aware monthly value series in USD millions.

A ``MonthlySeries`` stores one value per consecutive calendar month; missing
observations are explicit ``None`` entries, never skipped months. Values are
USD millions per month in levels, or natural-log points after the log
transform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from datetime import date, datetime
from typing import Iterator

import numpy as np

from .errors import DataError
from .months import (
    add_months,
    format_month,
    month_diff,
    parse_month,
)

LEVELS = "levels"
LOG = "log"
TRANSFORMS = (LEVELS, LOG)


@dataclass(frozen=True)
class SeriesMeta:
    """Provenance carried alongside the values."""

    category_set: str | None = None
    vintage_cutoff: datetime | None = None
    transform: str = LEVELS
    label: str | None = None
    n_nonpositive: int = 0  # values dropped by the log transform


@dataclass(frozen=True)
class MonthlySeries:
    start_month: date
    values: tuple[float | None, ...]
    meta: SeriesMeta = field(default_factory=SeriesMeta)

    def __post_init__(self):
        object.__setattr__(self, "start_month", date(self.start_month.year, self.start_month.month, 1))
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise DataError("a monthly series needs at least one month")
        if self.meta.transform not in TRANSFORMS:
            raise DataError(f"unknown transform tag: {self.meta.transform!r}")
        for i, v in enumerate(self.values):
            if v is None:
                continue
            if not math.isfinite(v):
                raise DataError(f"non-finite value at {format_month(self.month_at(i))}")
            if self.meta.transform == LEVELS and v < 0:
                raise DataError(
                    f"negative level at {format_month(self.month_at(i))}: {v}"
                )

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end_month(self) -> date:
        return add_months(self.start_month, len(self.values) - 1)

    def month_at(self, i: int) -> date:
        return add_months(self.start_month, i)

    def months(self) -> Iterator[date]:
        for i in range(len(self.values)):
            yield self.month_at(i)

    def index_of(self, month: date) -> int:
        i = month_diff(month, self.start_month)
        if not 0 <= i < len(self.values):
            raise KeyError(f"{format_month(month)} outside series span")
        return i

    def value_at(self, month: date) -> float | None:
        return self.values[self.index_of(month)]

    def covers(self, start: date, end: date) -> bool:
        return (
            month_diff(start, self.start_month) >= 0
            and month_diff(end, self.end_month) <= 0
        )

    def window(self, start: date, end: date) -> "MonthlySeries":
        """Slice to [start, end] inclusive; both must lie inside the span."""
        i, j = self.index_of(start), self.index_of(end)
        if j < i:
            raise DataError(f"empty window {format_month(start)}..{format_month(end)}")
        return replace(self, start_month=start, values=self.values[i : j + 1])

    def to_arrays(self, origin: date) -> tuple[np.ndarray, np.ndarray]:
        """Months relative to ``origin`` and values, missing entries dropped."""
        t, y = [], []
        offset = month_diff(self.start_month, origin)
        for i, v in enumerate(self.values):
            if v is not None:
                t.append(offset + i)
                y.append(v)
        return np.asarray(t, dtype=float), np.asarray(y, dtype=float)


def read_series_csv(path, meta: SeriesMeta | None = None) -> MonthlySeries:
    """Read a two-column (month, value_usd_millions) delimited file.

    Months must be consecutive; an empty value field marks a missing month.
    """
    rows: list[tuple[date, float | None]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty series file")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise DataError(f"{path}: line {lineno}: expected 2 columns")
            try:
                month = parse_month(row[0])
            except ValueError as e:
                raise DataError(f"{path}: line {lineno}: {e}") from e
            raw = row[1].strip()
            if raw == "":
                value: float | None = None
            else:
                try:
                    value = float(raw)
                except ValueError as e:
                    raise DataError(f"{path}: line {lineno}: bad value {raw!r}") from e
            rows.append((month, value))
    if not rows:
        raise DataError(f"{path}: no data rows")
    start = rows[0][0]
    values: list[float | None] = []
    for k, (month, value) in enumerate(rows):
        if month_diff(month, start) != k:
            raise DataError(
                f"{path}: months must be consecutive, found {format_month(month)} "
                f"at position {k}"
            )
        values.append(value)
    return MonthlySeries(start, tuple(values), meta or SeriesMeta())


def write_series_csv(series: MonthlySeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["month", "value_usd_millions"])
        for month, value in zip(series.months(), series.values):
            writer.writerow([format_month(month), "" if value is None else repr(value)])
