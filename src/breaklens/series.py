"""Gap-aware monthly value series in USD millions.

A ``MonthlySeries`` stores one value per consecutive calendar month in a
read-only float64 array; a missing observation is NaN, never a skipped
month. Values are USD millions per month in levels, or natural-log points
after the log transform. The estimators and the audit never test for NaN:
they take a span with :meth:`MonthlySeries.window` and the present months
with :meth:`MonthlySeries.to_arrays`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from datetime import date
from typing import Iterator

import numpy as np

from .errors import DataError, open_csv
from .months import add_months, format_month, month_diff, parse_month, parse_number

LEVELS = "levels"
LOG = "log"
TRANSFORMS = (LEVELS, LOG)


@dataclass(frozen=True)
class SeriesMeta:
    """Provenance carried alongside the values."""

    transform: str = LEVELS
    label: str | None = None
    n_nonpositive: int = 0  # values dropped by the log transform


@dataclass(frozen=True, eq=False)
class MonthlySeries:
    """One value per month from ``start_month`` on.

    ``values`` accepts any sequence of numbers with ``None`` or NaN for a
    missing month and is stored as a read-only float64 array (a copy).
    """

    start_month: date
    values: np.ndarray
    meta: SeriesMeta = field(default_factory=SeriesMeta)

    def __post_init__(self):
        object.__setattr__(self, "start_month", date(self.start_month.year, self.start_month.month, 1))
        values = np.array(self.values, dtype=np.float64)  # None becomes NaN
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or not len(values):
            raise DataError("a monthly series needs at least one month")
        if self.meta.transform not in TRANSFORMS:
            raise DataError(f"unknown transform tag: {self.meta.transform!r}")
        bad = np.isinf(values)
        if self.meta.transform == LEVELS:
            bad |= values < 0
        if bad.any():
            i = int(bad.argmax())
            where, v = format_month(self.month_at(i)), float(values[i])
            if math.isinf(v):
                raise DataError(f"non-finite value at {where}")
            raise DataError(f"negative level at {where}: {v}")

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
        present = ~np.isnan(self.values)
        t = np.flatnonzero(present) + float(month_diff(self.start_month, origin))
        return t, self.values[present]


def read_series_csv(path, meta: SeriesMeta | None = None) -> MonthlySeries:
    """Read a two-column (month, value_usd_millions) delimited file.

    Months must be consecutive; an empty value field marks a missing month,
    and a value is read by :func:`~breaklens.months.parse_number` and must be
    finite (not ``nan`` or ``inf``). Errors name the line.
    """
    values: list[float | None] = []
    with open_csv(path, lambda: reader.line_num) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty series file")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            where = f"{path}: line {reader.line_num}"  # the row's last line
            if len(row) < 2:
                raise DataError(f"{where}: expected 2 columns")
            try:
                month = parse_month(row[0])
            except ValueError as e:
                raise DataError(f"{where}: {e}") from e
            raw = row[1].strip()
            value = None
            if raw != "":
                try:
                    value = parse_number(raw)
                except ValueError as e:
                    raise DataError(f"{where}: bad value {raw!r}") from e
                if not math.isfinite(value):
                    raise DataError(f"{where}: non-finite value {raw!r}")
            if not values:
                start = month
            elif month_diff(month, start) != len(values):
                raise DataError(f"{where}: months must be consecutive, found {format_month(month)}")
            values.append(value)
    if not values:
        raise DataError(f"{path}: no data rows")
    return MonthlySeries(start, values, meta or SeriesMeta())


def write_series_csv(series: MonthlySeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["month", "value_usd_millions"])
        for month, value in zip(series.months(), series.values.tolist()):
            writer.writerow([format_month(month), "" if math.isnan(value) else repr(value)])
