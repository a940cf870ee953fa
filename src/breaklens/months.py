"""Calendar-month arithmetic and timestamp handling.

Months are represented as ``datetime.date`` objects pinned to the first day
of the month. Timestamps are timezone-aware UTC datetimes truncated to whole
seconds (comparison resolution for vintage cutoffs); a naive datetime or
timestamp string is read as UTC.
"""

from __future__ import annotations

import re
from datetime import date, datetime, timezone


def month_index(d: date) -> int:
    """Absolute month count; differences of indices are spans in months."""
    return d.year * 12 + (d.month - 1)


def index_month(i: int) -> date:
    return date(i // 12, i % 12 + 1, 1)


def add_months(d: date, n: int) -> date:
    return index_month(month_index(d) + n)


def month_diff(a: date, b: date) -> int:
    """``a`` minus ``b`` in whole months."""
    return month_index(a) - month_index(b)


def month_range(start: date, end: date) -> list[date]:
    """Consecutive months from ``start`` to ``end``, both inclusive."""
    if month_index(end) < month_index(start):
        raise ValueError(f"empty month range: {start}..{end}")
    return [index_month(i) for i in range(month_index(start), month_index(end) + 1)]


_PERIOD_RE = re.compile(r"^([0-9]{4})([0-9]{2})$")
_MONTH_RE = re.compile(r"^([0-9]{4})-([0-9]{2})$")


def parse_period(s: str) -> date:
    """Parse a YYYYMM period token."""
    m = _PERIOD_RE.match(s.strip())
    if not m:
        raise ValueError(f"period must be YYYYMM, got {s!r}")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"period month out of range: {s!r}")
    return date(year, month, 1)


def parse_month(s: str) -> date:
    """Parse a month token in YYYY-MM or YYYYMM form."""
    s = s.strip()
    m = _MONTH_RE.match(s)
    if m:
        year, month = int(m.group(1)), int(m.group(2))
        if not 1 <= month <= 12:
            raise ValueError(f"month out of range: {s!r}")
        return date(year, month, 1)
    return parse_period(s)


def format_month(d: date) -> str:
    return f"{d.year:04d}-{d.month:02d}"


def as_utc(ts: datetime) -> datetime:
    """``ts`` as an aware UTC datetime truncated to whole seconds.

    A naive ``ts`` is read as UTC, never in the host's zone. Raises
    ``ValueError`` when the UTC time leaves years 1-9999.
    """
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc).replace(microsecond=0)
    except OverflowError as e:
        raise ValueError(f"timestamp leaves years 1-9999 in UTC: {ts.isoformat()!r}") from e


def parse_timestamp(s: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime (see
    :func:`as_utc`). A bare date parses as midnight UTC."""
    s = s.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(s)
    except ValueError as e:
        raise ValueError(f"invalid ISO-8601 timestamp: {s!r}") from e
    return as_utc(ts)


def format_timestamp(ts: datetime) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` in UTC (see :func:`as_utc`), the year
    zero-padded to four digits."""
    return as_utc(ts).replace(tzinfo=None).isoformat() + "Z"
