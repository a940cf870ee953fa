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
from itertools import chain, groupby, islice

import numpy as np

from .errors import DataError, RecordParseError, open_csv
from .months import as_utc, month_index, month_range, parse_number, parse_period, parse_timestamp
from .series import MonthlySeries, SeriesMeta

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
    return len(code) == 2 and code.isascii() and code.isdigit() and code != "00"


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
        value = parse_number(raw_value)
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
    """The record array of the column chunks, in order, with its ``key``. Takes
    each chunk out of ``chunks`` as it is copied in, never holding all at once."""
    names = [name for name, _ in RECORD_FIELDS]
    empty = [np.array([], dtype) for dtype in _DTYPES]
    # a string field is as wide as its widest chunk, and one character wide with no chunks
    dtypes = [np.concatenate([c[:0] for c in parts]).dtype for parts in zip(empty, *chunks)]
    records = np.recarray(sum(len(c[0]) for c in chunks), [*zip(names, dtypes), RECORD_FIELDS[-1]])
    filled = 0
    while chunks:
        columns = chunks.pop(0)
        for name, column in zip(names, columns):
            records[name][filled : filled + len(column)] = column
        filled += len(columns[0])
    records["key"] = _keys([records[name] for name in names[:4]])
    return records


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


class _NotCanonical(Exception):
    """A chunk holds a row in another form than the canonical one."""


def _require(condition) -> None:
    if not condition:
        raise _NotCanonical


#: ASCII bytes that ``str.strip`` removes.
_SPACE = np.array([chr(b).isspace() for b in range(128)])
#: Bytes of a canonical ``value_usd``, and the zero that pads a gathered field.
_NUMBER = np.isin(np.arange(128), list(b"\x000123456789.eE+-"))
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _strings(buf: np.ndarray, span, kind: str) -> np.ndarray:
    """The fields of ``span`` as zero-padded numpy strings of ``kind`` "S" or "U"."""
    start, stop = span
    length = stop - start
    width = max(int(length.max()), 1)
    if start.max() + width > len(buf):
        buf = np.concatenate([buf, np.zeros(width, np.uint8)])
    text = np.lib.stride_tricks.sliding_window_view(buf, width)[start]
    text[np.arange(width) >= length[:, None]] = 0
    # an ASCII byte is its own code point, and widening is far faster than decoding
    return text.astype(np.uint32 if kind == "U" else np.uint8).view(f"{kind}{width}").ravel()


def _numbers(buf: np.ndarray, span, form: str) -> list[np.ndarray]:
    """The numbers in fields of exactly ``form``, where a run of one lowercase
    letter is that many ASCII digits and any other character itself; one per run."""
    start, stop = span
    _require((stop - start == len(form)).all())
    text = np.lib.stride_tricks.sliding_window_view(buf, len(form))[start]
    digit = np.array([c.islower() for c in form])
    _require((text[:, ~digit] == np.frombuffer(form.encode(), np.uint8)[~digit]).all())
    digits = text[:, digit] - np.uint8(ord("0"))  # a byte below '0' wraps round to a large value
    _require((digits < 10).all())
    runs = [len(list(run)) for _, run in groupby(c for c in form if c.islower())]
    groups = np.split(digits.astype(np.int64), np.cumsum(runs)[:-1], axis=1)
    return [group @ 10 ** np.arange(group.shape[1] - 1, -1, -1) for group in groups]


def _instants(buf: np.ndarray, span) -> np.ndarray:
    """The instants of ``YYYY-MM-DDTHH:MM:SSZ`` fields that name a time of
    the Gregorian calendar in years 1-9999, converted by days from civil
    (H. Hinnant, http://howardhinnant.github.io/date_algorithms.html)."""
    year, month, day, hour, minute, second = _numbers(buf, span, "yyyy-mm-ddThh:mm:ssZ")
    _require(((year >= 1) & (month >= 1) & (month <= 12)).all())
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[month] + (leap & (month == 2))
    _require(((day >= 1) & (day <= month_days) & (hour < 24) & (minute < 60) & (second < 60)).all())
    era, year_of_era = np.divmod(year - (month <= 2), 400)  # years from March, leap day last
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    days = era * 146097 + day_of_era - 719468
    return (days * 86400 + hour * 3600 + minute * 60 + second).astype("datetime64[s]")


def _canonical_chunk(text: str, index: list[int], n_columns: int) -> list[np.ndarray]:
    """The columns of the CSV lines ``text`` if each is blank or a canonical
    row; otherwise :class:`_NotCanonical`. A canonical row is unquoted ASCII
    without NUL, ends in LF or CRLF, has ``n_columns`` fields, and holds the
    record columns (at ``index``) as :func:`_parse_row` accepts them without
    stripping or reformatting: ``YYYYMM``, codes without surrounding
    whitespace, two hs2 digits, a finite nonnegative number in ``0-9.eE+-``
    and ``YYYY-MM-DDTHH:MM:SSZ`` timestamps in order. Each converts exactly
    as :func:`_parse_row` converts it."""
    _require(text.isascii() and '"' not in text and "\0" not in text)
    buf = np.frombuffer(text.encode("ascii") + b"\n" * (not text.endswith("\n")), np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    _require((buf[np.flatnonzero(buf == ord("\r")) + 1] == ord("\n")).all())
    # csv.reader refuses a field over its limit; a line under it holds none
    _require(np.diff(ends, prepend=-1).max() <= csv.field_size_limit())
    starts = np.concatenate([[0], ends[:-1] + 1])
    ends -= buf[ends - 1] == ord("\r")
    commas = np.flatnonzero(buf == ord(","))
    rows = starts < ends  # a blank line is no data row
    commas_per_line = np.diff(np.searchsorted(commas, ends), prepend=0)
    _require(rows.any() and (commas_per_line[rows] == n_columns - 1).all())
    # field j of a row runs from bounds[:, j] + 1 to bounds[:, j + 1]
    bounds = np.column_stack([starts[rows] - 1, commas.reshape(-1, n_columns - 1), ends[rows]])
    spans = [(bounds[:, j] + 1, bounds[:, j + 1]) for j in index]
    period, reporter, partner, hs2, value, first, last = spans

    year, month = _numbers(buf, period, "yyyymm")
    _require(((year >= 1) & (month >= 1) & (month <= 12)).all())
    for start, stop in (reporter, partner):
        _require((stop > start).all() and not (_SPACE[buf[start]] | _SPACE[buf[stop - 1]]).any())
    _require((_numbers(buf, hs2, "hh")[0] > 0).all())
    value = _strings(buf, value, "S")
    _require(_NUMBER[value.view(np.uint8)].all())
    try:
        with np.errstate(over="ignore"):  # a value past the float range reads as inf
            value = value.astype(np.float64)
    except ValueError:
        raise _NotCanonical from None
    _require((np.isfinite(value) & (value >= 0)).all())
    first, last = _instants(buf, first), _instants(buf, last)
    _require((first <= last).all())
    months = (year * 12 + month - 1 - _EPOCH_MONTH).astype("datetime64[M]")
    codes = [_strings(buf, span, "U") for span in (reporter, partner, hs2)]
    return [months, *codes, value, first, last]


def parse_records(path) -> np.recarray:
    """Parse a comma-separated trade-records file into a record array.

    Expects a header row with the columns in :data:`RECORD_COLUMNS`, each
    once; other columns are ignored, and so are blank lines. Lines are
    validated a chunk at a time as raw bytes; a chunk with any row in
    another form than the canonical one (see :func:`_canonical_chunk`) is
    validated row by row (and, if it holds a quote, so is the rest of the
    file), and the first malformed row aborts with an error naming the data
    row number (1-based) and the offending field. Row order is preserved.
    """
    # the reader in use starts after line lines_done
    with open_csv(path, lambda: lines_done + reader.line_num) as fh:
        reader, lines_done = csv.reader(fh), 0
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        missing = [c for c in RECORD_COLUMNS if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns: {', '.join(missing)}")
        duplicates = [c for c in RECORD_COLUMNS if header.count(c) > 1]
        if duplicates:
            raise DataError(f"{path}: duplicate columns: {', '.join(duplicates)}")
        index = [header.index(c) for c in RECORD_COLUMNS]
        chunks, rows_done, lines_done = [], 0, reader.line_num
        while chunk := list(islice(fh, _CHUNK_ROWS)):
            text = "".join(chunk)
            try:
                chunks.append(_canonical_chunk(text, index, len(header)))
                rows_done += len(chunks[-1][0])
            except _NotCanonical:
                # a quoted field may run on past the chunk, so the rest is read with it
                reader = csv.reader(chain(chunk, fh) if '"' in text else chunk)
                rows = filter(None, reader)  # a blank line reads as [] and is no data row
                while part := list(islice(rows, _CHUNK_ROWS)):
                    numbered = enumerate((dict(zip(header, r)) for r in part), rows_done + 1)
                    chunks.append(_columns(_parse_row(n, row) for n, row in numbered))
                    rows_done += len(part)
            lines_done += len(chunk)
            del chunk, text  # before the next chunk is read, so that two are never held
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
    return MonthlySeries(start, totals, SeriesMeta(label=label or category_set.name))


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
