"""Partner-reported trade records: parsing, vintage filtering, aggregation.

The country under study reports no disaggregated imports itself, so monthly
import series are mirror statistics built from partners' export submissions.
Each record carries the submission timestamps needed to reconstruct the
dataset as it stood at any historical instant (a data vintage).

The records live in one NumPy record array (see :func:`record_array`), in
file order; a vintage is a mask on ``first_submitted_at`` and a series is a
masked ``bincount`` of ``value_usd`` by month.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from datetime import date, datetime
from itertools import islice

import numpy as np

from .errors import DataError, RecordParseError
from .months import as_utc, month_index, month_range, parse_period, parse_timestamp
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

#: The record array's fields and dtypes; ``str`` becomes a fixed-width
#: string as wide as the longest value. ``key`` is computed, not read.
RECORD_FIELDS = (
    ("period", "datetime64[M]"),
    ("reporter", str),
    ("partner", str),
    ("hs2", str),
    ("value_usd", np.float64),
    ("first_submitted_at", "datetime64[s]"),
    ("last_updated_at", "datetime64[s]"),
    ("key", np.int64),
)

_EPOCH_MONTH = month_index(date(1970, 1, 1))  # integer months count from here in numpy

#: Rows converted to columns at a time, so parsing never holds a Python
#: object per row of the whole file.
_CHUNK_ROWS = 1 << 14


def _valid_hs2(code: str) -> bool:
    return len(code) == 2 and code.isdigit() and code != "00"


@dataclass(frozen=True)
class VintagePolicy:
    """Keep records whose first submission predates the cutoff instant.

    Kept records retain their latest reported value: the updated figure is a
    better proxy for what was on file at the cutoff than the zero implied by
    dropping the record, and pre-update values are not observable anyway.
    """

    cutoff_instant: datetime

    def __post_init__(self):
        object.__setattr__(self, "cutoff_instant", as_utc(self.cutoff_instant))


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

    def mask(self, records: np.recarray) -> np.ndarray:
        """Which records fall in this set's chapters."""
        return np.isin(records.hs2, sorted(self.codes))


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


def _parse_row(rownum: int, row: dict[str, str]) -> tuple:
    """One validated row in the form :func:`record_array` takes, with the
    month and the timestamps as integer offsets from the 1970 epoch (the
    fastest form for numpy to convert)."""

    def fail(field_name: str, message: str):
        raise RecordParseError(rownum, field_name, message)

    raw_period = (row.get("period") or "").strip()
    try:
        period = month_index(parse_period(raw_period)) - _EPOCH_MONTH
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

    return (period, reporter, partner, hs2, value, int(first.timestamp()), int(last.timestamp()))


def _keys(columns: list[np.ndarray]) -> np.ndarray:
    """Dense integer ids of the (period, reporter, partner, hs2) tuples, one
    field at a time so that no intermediate id exceeds rows squared."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns[:4]:
        values, codes = np.unique(column, return_inverse=True)
        key = np.unique(key * len(values) + codes, return_inverse=True)[1]
    return key


_DTYPES = [dtype for _, dtype in RECORD_FIELDS[:-1]]


def _columns(rows) -> list[np.ndarray]:
    """The columns, all but ``key``, of rows in the form :func:`record_array` takes."""
    return [np.array(column, dtype) for column, dtype in zip(zip(*rows), _DTYPES)]


def _assemble(chunks: list[list[np.ndarray]]) -> np.recarray:
    """The record array of the concatenated column chunks, with its
    ``key``. Empties ``chunks``, so that they are freed before the key is
    computed."""
    empty = [np.array([], dtype) for dtype in _DTYPES]  # so that no chunks make empty columns
    columns = [np.concatenate(parts) for parts in zip(empty, *chunks)]
    del chunks[:]
    columns.append(_keys(columns))
    return np.rec.fromarrays(columns, names=[name for name, _ in RECORD_FIELDS])


def record_array(rows) -> np.recarray:
    """The record array of ``rows``, in their order.

    Each row is ``(period, reporter, partner, hs2, value_usd,
    first_submitted_at, last_updated_at)``: a month, three strings, a float
    and two UTC instants, where a month or an instant is anything numpy
    converts to the field's dtype (an integer offset from 1970-01 in months
    or from 1970-01-01T00:00:00 in seconds, a ``datetime64``, a ``date`` or a
    naive ``datetime``). Rows are not checked; :func:`parse_records`
    validates them first. The fields are listed in :data:`RECORD_FIELDS`.
    """
    rows = iter(rows)
    chunks = iter(lambda: list(islice(rows, _CHUNK_ROWS)), [])
    return _assemble([_columns(chunk) for chunk in chunks])


_FIRST_INSTANT = np.datetime64("0001-01-01T00:00:00", "s")


def _ascii_digits(column: np.ndarray, width: int) -> np.ndarray | None:
    """The digit values, one row per string, when every string is exactly
    ``width`` ASCII digits; otherwise ``None``."""
    if (np.char.str_len(column) != width).any():
        return None
    # one code point per character; one below '0' wraps round to a large value
    digits = column.astype(f"<U{width}").view(np.uint32).reshape(-1, width) - ord("0")
    return digits.astype(np.int64) if (digits < 10).all() else None


def _canonical_instants(column: np.ndarray) -> np.ndarray | None:
    """The instants of ``YYYY-MM-DDTHH:MM:SSZ`` strings in years 1-9999, or
    ``None`` if any string is in another form. A string counts only if numpy
    writes its instant back as the same text."""
    if (np.char.str_len(column) != 20).any() or not np.char.endswith(column, "Z").all():
        return None
    text = column.astype("<U19")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns of a time zone, which canonical text lacks
            instants = text.astype("datetime64[s]")
    except (ValueError, UserWarning):
        return None
    if (np.datetime_as_string(instants) != text).any() or (instants < _FIRST_INSTANT).any():
        return None
    return instants


def _canonical_columns(rows: list[list[str]], index: list[int]) -> list[np.ndarray] | None:
    """The columns of ``rows`` (the record columns at ``index`` in each row)
    when every row is canonical; ``None`` as soon as one is not.

    Canonical rows take the checks of :func:`_parse_row` as whole columns:
    a period of six ASCII digits, reporter and partner codes without
    surrounding whitespace, two ASCII hs2 digits, a finite nonnegative
    value, and ``YYYY-MM-DDTHH:MM:SSZ`` timestamps in order. Whatever passes
    converts exactly as :func:`_parse_row` converts it.
    """
    fields = list(zip(*rows))
    if len(fields) <= max(index):
        return None  # a row too short to hold every record column
    columns = [np.array(fields[i]) for i in index]
    # numpy strings drop trailing NULs, which the row-wise checks see
    if any(np.char.str_len(c).sum() != sum(map(len, fields[i])) for c, i in zip(columns, index)):
        return None
    period, reporter, partner, hs2, value, first, last = columns

    digits = _ascii_digits(period, 6)
    if digits is None:
        return None
    year = digits[:, :4] @ [1000, 100, 10, 1]
    month = digits[:, 4:] @ [10, 1]
    if (year < 1).any() or (month < 1).any() or (month > 12).any():
        return None
    for code in (reporter, partner):
        if (np.char.str_len(code) == 0).any() or (np.char.strip(code) != code).any():
            return None
    if _ascii_digits(hs2, 2) is None or (hs2 == "00").any():
        return None
    try:
        value = value.astype(np.float64)
    except ValueError:
        return None
    if not (np.isfinite(value) & (value >= 0)).all():
        return None
    first, last = _canonical_instants(first), _canonical_instants(last)
    if first is None or last is None or (first > last).any():
        return None
    months = (year * 12 + month - 1 - _EPOCH_MONTH).astype("datetime64[M]")
    return [months, reporter, partner, hs2, value, first, last]


def _csv_rows(path, fh):
    """The rows of the open CSV file ``fh``; a malformed or undecodable file
    ends in a :class:`DataError` naming ``path`` and the line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as e:
        raise DataError(f"{path}: line {reader.line_num}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: line {_undecodable_line(path)}: not UTF-8: {e.reason}") from e


def _undecodable_line(path) -> int:
    """The first line of ``path`` that is not valid UTF-8, counted as the
    CSV reader counts lines."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:  # an undecodable byte became a lone surrogate
                return lineno
    raise DataError(f"{path}: changed while being read")


def parse_records(path) -> np.recarray:
    """Parse a comma-separated trade-records file into a record array.

    Expects a header row with the columns in :data:`RECORD_COLUMNS`, each
    once; other columns are ignored, and so are blank lines. Rows are
    validated a chunk at a time as whole columns; a chunk with any row in
    another form than the canonical one (see :func:`_canonical_columns`) is
    validated row by row, and the first malformed row aborts with an error
    naming the data row number (1-based) and the offending field. Row order
    is preserved.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _csv_rows(path, fh)
        header = next(rows, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        missing = [c for c in RECORD_COLUMNS if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns: {', '.join(missing)}")
        duplicates = [c for c in RECORD_COLUMNS if header.count(c) > 1]
        if duplicates:
            raise DataError(f"{path}: duplicate columns: {', '.join(duplicates)}")
        index = [header.index(c) for c in RECORD_COLUMNS]
        rows = filter(None, rows)  # a blank line reads as [] and is no data row
        chunks, done = [], 0
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            columns = _canonical_columns(chunk, index)
            if columns is None:
                numbered = enumerate(chunk, start=done + 1)
                columns = _columns(_parse_row(n, dict(zip(header, row))) for n, row in numbered)
            chunks.append(columns)
            done += len(chunk)
            del chunk  # before the next chunk is read, so that two are never held
    return _assemble(chunks)


def serialize_records(records: np.recarray, path) -> None:
    """Write records back out in the canonical column order (UTC timestamps)."""
    columns = [
        np.char.replace(np.datetime_as_string(records.period), "-", ""),
        records.reporter,
        records.partner,
        records.hs2,
        map(repr, records.value_usd.tolist()),
        np.char.add(np.datetime_as_string(records.first_submitted_at), "Z"),
        np.char.add(np.datetime_as_string(records.last_updated_at), "Z"),
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        writer.writerows(zip(*columns))


def apply_vintage(records: np.recarray, policy: VintagePolicy) -> np.recarray:
    """Restrict records to those already submitted at the policy cutoff."""
    cutoff = np.datetime64(policy.cutoff_instant.replace(tzinfo=None), "s")
    return records[records.first_submitted_at <= cutoff]


def aggregate_series(
    records: np.recarray,
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
    may split consignments across rows. Values are added in row order.
    """
    start, end = months
    n_months = len(month_range(start, end))
    in_set = category_set.mask(records)
    duplicates = np.count_nonzero(in_set) - np.count_nonzero(np.bincount(records.key[in_set]))
    offset = (records.period - np.datetime64(start, "M")).astype(np.int64)
    take = in_set & (offset >= 0) & (offset < n_months)
    weights = records.value_usd[take] / 1e6
    # float even when nothing is taken: bincount then returns integer zeros
    totals = np.bincount(offset[take], weights, n_months).astype(np.float64, copy=False)
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
    return MonthlySeries(start, totals, meta)


def category_share(
    records: np.recarray,
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
    in_year = records.period.astype("datetime64[Y]").astype(np.int64) + 1970 == year
    total_sum = float(records.value_usd[in_year & total.mask(records)].sum())
    if total_sum <= 0.0:
        raise DataError(
            f"undefined share: total over {total.name!r} in {year} is zero"
        )
    return float(records.value_usd[in_year & subset.mask(records)].sum()) / total_sum
