"""Shared builders for test data."""

from __future__ import annotations

import csv
import math
import re
import warnings
from datetime import date, datetime, timezone

import numpy as np

from breaklens.months import add_months, month_diff, month_range
from breaklens.series import MonthlySeries, SeriesMeta
from breaklens.trade_ingest import _parse_row, record_array

CUTOFF = date(2017, 8, 1)
WINDOW_START = date(2015, 4, 1)


def ts(year, month=1, day=1, hour=0) -> datetime:
    return datetime(year, month, day, hour, tzinfo=timezone.utc)


def record(
    period=date(2017, 1, 1),
    reporter="VEN",
    partner="DEU",
    hs2="02",
    value_usd=1_000_000.0,
    submitted=None,
    updated=None,
) -> tuple:
    """One row in the form ``record_array`` takes; timestamps are aware."""
    submitted = submitted or ts(2018, 6, 1)
    updated = updated or submitted
    naive_utc = [t.astimezone(timezone.utc).replace(tzinfo=None) for t in (submitted, updated)]
    return (period, reporter, partner, hs2, value_usd, *naive_utc)


def records_of(*rows) -> np.recarray:
    """The record array of ``record(...)`` rows."""
    return record_array(rows)


def reference_rows(path, first_row=1) -> list[tuple]:
    """``_parse_row`` on every row ``csv.DictReader`` reads from ``path``,
    numbered from ``first_row``: the row-wise parse that ``parse_records``
    keeps as its slow path."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [_parse_row(n, row) for n, row in enumerate(csv.DictReader(fh), start=first_row)]


def reference_parse_records(path) -> np.recarray:
    """``parse_records`` of a file with a valid header, row by row."""
    return record_array(reference_rows(path))


def reference_series(records, category_set, months, cutoff=None):
    """The per-record aggregation loop that ``apply_vintage`` plus
    ``aggregate_series`` replaced: the monthly values in USD millions and the
    number of duplicate period/reporter/partner/hs2 rows in the category and
    the span."""
    start, end = months
    grid = month_range(start, end)
    index = {m: i for i, m in enumerate(grid)}
    totals = [0.0] * len(grid)
    seen: set[tuple] = set()
    duplicates = 0
    if cutoff is not None:
        cutoff = np.datetime64(cutoff.astimezone(timezone.utc).replace(tzinfo=None), "s")
    for r in records:
        if cutoff is not None and r.first_submitted_at > cutoff:
            continue
        if f"{r.hs2:02d}" not in category_set.codes:
            continue
        period = r.period.item()
        i = index.get(period)
        if i is None:
            continue
        key = (period, r.reporter, r.partner, r.hs2)
        if key in seen:
            duplicates += 1
        else:
            seen.add(key)
        totals[i] += float(r.value_usd) / 1e6
    return tuple(totals), duplicates


# The month-by-month walks over a series of ``float | None`` that the array
# form of ``MonthlySeries`` replaced, kept as references for it.


def tuple_values(series) -> tuple:
    """The values of ``series`` as a float or ``None`` per month."""
    return tuple(None if math.isnan(v) else v for v in series.values.tolist())


def reference_to_arrays(series, origin):
    """``MonthlySeries.to_arrays``: months from ``origin`` and present values."""
    t, y = [], []
    offset = month_diff(series.start_month, origin)
    for i, v in enumerate(tuple_values(series)):
        if v is not None:
            t.append(offset + i)
            y.append(v)
    return np.asarray(t, dtype=float), np.asarray(y, dtype=float)


def reference_window_rows(series, spec):
    """``trend_break._window_rows`` on a series that covers the fit window."""
    values = tuple_values(series)
    ts_, ys = [], []
    for t in range(-spec.pre_window, spec.post_window):
        v = values[month_diff(add_months(spec.cutoff_month, t), series.start_month)]
        if v is not None:
            ts_.append(t)
            ys.append(v)
    return ts_, ys


def reference_series_points(series, spec):
    """``rdd_local_poly._series_points`` on a series that meets the bandwidth sample."""
    values = tuple_values(series)
    ts_, ys = [], []
    for month in month_range(*spec.bandwidth_sample):
        i = month_diff(month, series.start_month)
        if 0 <= i < len(values) and values[i] is not None:
            ts_.append(month_diff(month, spec.cutoff_month))
            ys.append(values[i])
    return ts_, ys


def reference_overlap(a, b):
    """``replication_audit._overlap``: the months where both series have a
    value, and the two values."""
    va, vb = tuple_values(a), tuple_values(b)
    start = max(a.start_month, b.start_month)
    end = min(a.end_month, b.end_month)
    months, xa, xb = [], [], []
    if month_diff(end, start) >= 0:
        ia, ib = month_diff(start, a.start_month), month_diff(start, b.start_month)
        for k in range(month_diff(end, start) + 1):
            if va[ia + k] is not None and vb[ib + k] is not None:
                months.append(add_months(start, k))
                xa.append(va[ia + k])
                xb.append(vb[ib + k])
    return months, xa, xb


def reference_log_transform(series):
    """``trend_break.log_transform``'s values and dropped count, with its warning."""
    values, dropped = [], 0
    for v in tuple_values(series):
        if v is None:
            values.append(None)
        elif v > 0:
            values.append(math.log(v))
        else:
            values.append(None)
            dropped += 1
    if dropped:
        warnings.warn(
            f"log transform dropped {dropped} nonpositive value(s) "
            f"in {series.meta.label or 'series'}"
        )
    return tuple(values), dropped


def series_from_fn(fn, start=WINDOW_START, cutoff=CUTOFF, n=57, transform="levels", **meta):
    """Series whose value at month k is fn(t) with t = months from the cutoff."""
    offset = month_diff(start, cutoff)
    values = tuple(fn(offset + k) for k in range(n))
    return MonthlySeries(start, values, SeriesMeta(transform=transform, **meta))


def piecewise(pre_intercept, pre_slope, post_intercept, post_slope):
    def fn(t):
        if t < 0:
            return pre_intercept + pre_slope * t
        return post_intercept + post_slope * t

    return fn


def set_path(raw: dict, path: str, value) -> None:
    """Set the value at a JSON path such as ``audits[0].search.step_days``."""
    *parents, last = [int(t) if t.isdigit() else t for t in re.findall(r"[^.\[\]]+", path)]
    for token in parents:
        raw = raw[token]
    raw[last] = value
