"""Shared builders for test data."""

from __future__ import annotations

import re
from datetime import date, datetime, timezone

from breaklens.series import MonthlySeries, SeriesMeta
from breaklens.trade_ingest import RawTradeRecord

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
) -> RawTradeRecord:
    submitted = submitted or ts(2018, 6, 1)
    updated = updated or submitted
    return RawTradeRecord(
        period=period,
        reporter=reporter,
        partner=partner,
        hs2=hs2,
        value_usd=value_usd,
        first_submitted_at=submitted,
        last_updated_at=updated,
    )


def series_from_fn(fn, start=WINDOW_START, cutoff=CUTOFF, n=57, transform="levels", **meta):
    """Series whose value at month k is fn(t) with t = months from the cutoff."""
    from breaklens.months import month_diff

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
