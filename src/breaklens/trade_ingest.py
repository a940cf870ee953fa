"""Partner-reported trade records: parsing, vintage filtering, aggregation.

The country under study reports no disaggregated imports itself, so monthly
import series are mirror statistics built from partners' export submissions.
Each record carries the submission timestamps needed to reconstruct the
dataset as it stood at any historical instant (a data vintage).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from datetime import date, datetime

from .errors import DataError, RecordParseError
from .months import (
    format_period,
    format_timestamp,
    month_range,
    parse_period,
    parse_timestamp,
)
from .series import LEVELS, MonthlySeries, SeriesMeta

RECORD_COLUMNS = (
    "period",
    "reporter_code",
    "partner_code",
    "hs2_code",
    "value_usd",
    "first_submitted_at",
    "last_updated_at",
)


def _valid_hs2(code: str) -> bool:
    return len(code) == 2 and code.isdigit() and code != "00"


@dataclass(frozen=True)
class RawTradeRecord:
    """One partner-reported monthly flow value with submission timestamps."""

    period: date
    reporter: str
    partner: str
    hs2: str
    value_usd: float
    first_submitted_at: datetime
    last_updated_at: datetime

    def __post_init__(self):
        if self.value_usd < 0:
            raise ValueError(f"value_usd must be nonnegative, got {self.value_usd}")
        if self.first_submitted_at > self.last_updated_at:
            raise ValueError("first_submitted_at is after last_updated_at")
        if not _valid_hs2(self.hs2):
            raise ValueError(f"hs2 must be a zero-padded code in 01..99, got {self.hs2!r}")


@dataclass(frozen=True)
class VintagePolicy:
    """Keep records whose first submission predates the cutoff instant.

    Kept records retain their latest reported value: the updated figure is a
    better proxy for what was on file at the cutoff than the zero implied by
    dropping the record, and pre-update values are not observable anyway.
    """

    cutoff_instant: datetime

    def __post_init__(self):
        object.__setattr__(
            self, "cutoff_instant", parse_timestamp(format_timestamp(self.cutoff_instant))
        )


@dataclass(frozen=True)
class CategorySet:
    """Named set of two-digit commodity chapter codes."""

    name: str
    codes: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "codes", frozenset(self.codes))
        if not self.codes:
            raise ValueError(f"category set {self.name!r} is empty")
        bad = sorted(c for c in self.codes if not _valid_hs2(c))
        if bad:
            raise ValueError(f"category set {self.name!r} has invalid hs2 codes: {bad}")

    def __contains__(self, code: str) -> bool:
        return code in self.codes


#: Restricted food basket: chapters 02-08 and 20-24 only, i.e. without the
#: cereals-and-oils chapters 10-19.
ANOVA_FOOD = CategorySet(
    "anova_food",
    frozenset({"02", "03", "04", "06", "07", "08", "20", "21", "22", "24"}),
)

#: Complete food basket: the restricted set plus chapters 10-19.
FULL_FOOD = CategorySet(
    "full_food",
    ANOVA_FOOD.codes | frozenset(f"{c:02d}" for c in range(10, 20)),
)

#: Pharmaceutical products (chapter 30), the standard medicines proxy.
MEDICINES = CategorySet("medicines", frozenset({"30"}))

BUILTIN_CATEGORY_SETS = {s.name: s for s in (ANOVA_FOOD, FULL_FOOD, MEDICINES)}


def _parse_row(rownum: int, row: dict[str, str]) -> RawTradeRecord:
    def fail(field_name: str, message: str):
        raise RecordParseError(rownum, field_name, message)

    raw_period = (row.get("period") or "").strip()
    try:
        period = parse_period(raw_period)
    except ValueError as e:
        fail("period", str(e))

    reporter = (row.get("reporter_code") or "").strip()
    if not reporter:
        fail("reporter_code", "must not be empty")
    partner = (row.get("partner_code") or "").strip()
    if not partner:
        fail("partner_code", "must not be empty")

    hs2 = (row.get("hs2_code") or "").strip()
    if not _valid_hs2(hs2):
        fail("hs2_code", f"must be a zero-padded code in 01..99, got {hs2!r}")

    raw_value = (row.get("value_usd") or "").strip()
    try:
        value = float(raw_value)
    except ValueError:
        fail("value_usd", f"not a number: {raw_value!r}")
    if not math.isfinite(value):
        fail("value_usd", f"not finite: {raw_value!r}")
    if value < 0:
        fail("value_usd", f"must be nonnegative, got {raw_value}")

    try:
        first = parse_timestamp(row.get("first_submitted_at") or "")
    except ValueError as e:
        fail("first_submitted_at", str(e))
    try:
        last = parse_timestamp(row.get("last_updated_at") or "")
    except ValueError as e:
        fail("last_updated_at", str(e))
    if first > last:
        fail("first_submitted_at", "is after last_updated_at")

    return RawTradeRecord(period, reporter, partner, hs2, value, first, last)


def parse_records(path) -> list[RawTradeRecord]:
    """Parse a comma-separated trade-records file.

    Expects a header row with the columns in :data:`RECORD_COLUMNS`. Rows are
    validated one by one; the first malformed row aborts with an error naming
    the data row number (1-based) and the offending field. Row order is
    preserved.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected a header row")
        missing = [c for c in RECORD_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing columns: {', '.join(missing)}")
        records = []
        for rownum, row in enumerate(reader, start=1):
            records.append(_parse_row(rownum, row))
    return records


def serialize_records(records: list[RawTradeRecord], path) -> None:
    """Write records back out in the canonical column order (UTC timestamps)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    format_period(r.period),
                    r.reporter,
                    r.partner,
                    r.hs2,
                    repr(r.value_usd),
                    format_timestamp(r.first_submitted_at),
                    format_timestamp(r.last_updated_at),
                ]
            )


def apply_vintage(
    records: list[RawTradeRecord], policy: VintagePolicy
) -> list[RawTradeRecord]:
    """Restrict records to those already submitted at the policy cutoff."""
    cutoff = policy.cutoff_instant
    return [r for r in records if r.first_submitted_at <= cutoff]


def aggregate_series(
    records: list[RawTradeRecord],
    category_set: CategorySet,
    months: tuple[date, date],
    *,
    vintage_cutoff: datetime | None = None,
    label: str | None = None,
) -> MonthlySeries:
    """Sum matching records into a monthly series in USD millions.

    Months without any matching record aggregate to 0.0: that is the value a
    missing partner submission implicitly contributes. Duplicate keys
    (period/reporter/partner/hs2) are summed with a warning, since bulk files
    may split consignments across rows.
    """
    start, end = months
    grid = month_range(start, end)
    index = {m: i for i, m in enumerate(grid)}
    totals = [0.0] * len(grid)
    seen: set[tuple] = set()
    duplicates = 0
    for r in records:
        if r.hs2 not in category_set:
            continue
        key = (r.period, r.reporter, r.partner, r.hs2)
        if key in seen:
            duplicates += 1
        else:
            seen.add(key)
        i = index.get(r.period)
        if i is not None:
            totals[i] += r.value_usd / 1e6
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate period/reporter/partner/hs2 rows summed "
            f"while aggregating {category_set.name!r}"
        )
    meta = SeriesMeta(
        category_set=category_set.name,
        vintage_cutoff=vintage_cutoff,
        transform=LEVELS,
        label=label or category_set.name,
    )
    return MonthlySeries(start, tuple(totals), meta)


def category_share(
    records: list[RawTradeRecord],
    subset: CategorySet,
    total: CategorySet,
    year: int,
) -> float:
    """Share of a year's total value contributed by a subset of chapters."""
    if not subset.codes <= total.codes:
        raise ValueError(
            f"{subset.name!r} is not a subset of {total.name!r}: "
            f"extra codes {sorted(subset.codes - total.codes)}"
        )
    subset_sum = 0.0
    total_sum = 0.0
    for r in records:
        if r.period.year != year:
            continue
        if r.hs2 in total:
            total_sum += r.value_usd
        if r.hs2 in subset:
            subset_sum += r.value_usd
    if total_sum <= 0.0:
        raise DataError(
            f"undefined share: total over {total.name!r} in {year} is zero"
        )
    return subset_sum / total_sum
