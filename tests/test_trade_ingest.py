import csv
import io
import subprocess
import sys
import textwrap
import time
import warnings
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from breaklens.errors import DataError, RecordParseError
from breaklens import trade_ingest
from breaklens.months import format_timestamp, parse_timestamp
from breaklens.trade_ingest import (
    ANOVA_FOOD,
    FULL_FOOD,
    MEDICINES,
    CategorySet,
    VintagePolicy,
    aggregate_series,
    apply_vintage,
    category_share,
    parse_records,
    record_array,
    serialize_records,
)
from conftest import FIXTURES, REPO_ROOT
from util import (
    record,
    records_of,
    reference_parse_records,
    reference_rows,
    reference_series,
    ts,
)

HEADER = "period,reporter_code,partner_code,hs2_code,value_usd,first_submitted_at,last_updated_at\n"


def write(tmp_path, body, name="records.csv"):
    path = tmp_path / name
    path.write_text(HEADER + textwrap.dedent(body), encoding="utf-8")
    return path


class TestParseRecords:
    def test_empty_file_with_header(self, tmp_path):
        assert len(parse_records(write(tmp_path, ""))) == 0

    def test_three_row_fixture(self, tmp_path):
        path = write(
            tmp_path,
            """\
            201504,VEN,DEU,02,5000000,2015-08-03T10:15:00Z,2015-09-01T00:00:00Z
            201504,VEN,USA,30,1250000.5,2015-09-10T00:00:00+02:00,2016-01-01T00:00:00Z
            201505,VEN,BRA,10,0,2016-02-20,2016-02-20
            """,
        )
        records = parse_records(path)
        assert len(records) == 3
        assert records[0].period == np.datetime64("2015-04")
        assert records[0].period.item() == date(2015, 4, 1)
        assert records[0].hs2 == "02"
        assert records[0].value_usd == 5_000_000.0
        # offsets are normalized to UTC: 00:00+02:00 is 22:00 the day before
        assert records[1].first_submitted_at == np.datetime64("2015-09-09T22:00:00")
        assert records[0].first_submitted_at == np.datetime64("2015-08-03T10:15:00")
        assert records[2].first_submitted_at == np.datetime64("2016-02-20T00:00:00")
        assert records[2].value_usd == 0.0

    def test_negative_value_names_row_and_field(self, tmp_path):
        path = write(
            tmp_path,
            """\
            201504,VEN,DEU,02,100,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z
            201504,VEN,USA,02,-5,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z
            """,
        )
        with pytest.raises(RecordParseError) as err:
            parse_records(path)
        assert err.value.row == 2
        assert err.value.field == "value_usd"

    @pytest.mark.parametrize(
        "row,field",
        [
            ("20154,VEN,DEU,02,1,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z", "period"),
            ("201513,VEN,DEU,02,1,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z", "period"),
            ("201504,VEN,DEU,2,1,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z", "hs2_code"),
            ("201504,VEN,DEU,00,1,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z", "hs2_code"),
            ("201504,VEN,DEU,02,abc,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z", "value_usd"),
            # float() reads underscores and other scripts' digits; one input language is ASCII
            ("201504,VEN,DEU,02,1_000,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z", "value_usd"),
            ("201504,VEN,DEU,02,\u0661,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z", "value_usd"),
            ("201504,VEN,DEU,\u0660\u0662,1,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z", "hs2_code"),
            # bytes of a canonical number that numpy cannot read: the row path names the row
            ("201504,VEN,DEU,02,1e,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z", "value_usd"),
            ("\u0662\u0660\u0661\u0665\u0660\u0664,VEN,DEU,02,1,2015-08-03T00:00:00Z,2015-08-03T00:00:00Z", "period"),
            ("201504,VEN,DEU,02,1,not-a-time,2015-08-03T00:00:00Z", "first_submitted_at"),
            (
                "201504,VEN,DEU,02,1,2016-01-01T00:00:00Z,2015-08-03T00:00:00Z",
                "first_submitted_at",
            ),
        ],
    )
    def test_malformed_rows(self, tmp_path, row, field):
        with pytest.raises(RecordParseError) as err:
            parse_records(write(tmp_path, row + "\n"))
        assert err.value.row == 1
        assert err.value.field == field

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("period,reporter_code\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing columns"):
            parse_records(path)

    def test_parse_serialize_parse_roundtrip(self, tmp_path):
        path = write(
            tmp_path,
            """\
            201504,VEN,DEU,02,5000000.25,2015-08-03T10:15:30+02:00,2015-09-01T00:00:00Z
            201607,VEN,USA,30,42,2016-09-10T23:59:59Z,2017-01-01T06:30:00Z
            """,
        )
        first = parse_records(path)
        out = tmp_path / "roundtrip.csv"
        serialize_records(first, out)
        again = parse_records(out)
        assert again.dtype == first.dtype
        assert again.tolist() == first.tolist()


@pytest.fixture
def caracas_host(monkeypatch):
    """The process's local zone set to UTC-4, restored afterwards."""
    monkeypatch.setenv("TZ", "America/Caracas")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


class TestVintage:
    def test_naive_cutoff_is_utc_whatever_the_host_zone(self, caracas_host):
        policy = VintagePolicy(cutoff_instant=datetime(2020, 1, 1))
        assert policy.cutoff_instant == ts(2020, 1) == parse_timestamp("2020-01-01T00:00:00")
        assert format_timestamp(datetime(2020, 1, 1)) == "2020-01-01T00:00:00Z"

    def test_cutoff_leaving_the_calendar_is_a_value_error(self):
        # 00:00 at +01:00 on 0001-01-01 is in year 0 in UTC
        edge = datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1)))
        with pytest.raises(ValueError, match="leaves years 1-9999"):
            VintagePolicy(cutoff_instant=edge)
        with pytest.raises(ValueError, match="leaves years 1-9999"):
            format_timestamp(edge)

    def test_cutoff_after_everything_is_identity(self):
        records = records_of(*(record(submitted=ts(2019, m)) for m in (1, 5, 9)))
        policy = VintagePolicy(cutoff_instant=ts(2020, 1))
        assert apply_vintage(records, policy).tolist() == records.tolist()

    def test_cutoff_before_everything_is_empty(self):
        records = records_of(*(record(submitted=ts(2019, m)) for m in (1, 5, 9)))
        assert len(apply_vintage(records, VintagePolicy(cutoff_instant=ts(2018, 1)))) == 0

    def test_mid_cutoff_keeps_earlier_submission(self):
        early = record(submitted=ts(2020, 9, 15))
        late = record(partner="USA", submitted=ts(2020, 11, 2))
        records = records_of(early, late)
        kept = apply_vintage(records, VintagePolicy(cutoff_instant=ts(2020, 10, 1)))
        assert kept.tolist() == records[:1].tolist()

    def test_boundary_instant_is_kept(self):
        boundary = record(submitted=ts(2020, 10, 1))
        records = records_of(boundary)
        kept = apply_vintage(records, VintagePolicy(cutoff_instant=ts(2020, 10, 1)))
        assert kept.tolist() == records.tolist()

    def test_updated_value_is_retained(self):
        # submitted before the cutoff but updated long after: still kept,
        # and the (latest) value on file is what aggregates
        r = record(value_usd=7e6, submitted=ts(2020, 9, 1), updated=ts(2022, 5, 1))
        records = records_of(r)
        kept = apply_vintage(records, VintagePolicy(cutoff_instant=ts(2020, 10, 1)))
        assert kept.tolist() == records.tolist()
        assert kept[0].value_usd == 7e6

    def test_monotonicity_randomized(self):
        rng = np.random.default_rng(3)
        chapters = sorted(FULL_FOOD.codes)
        for _ in range(50):
            records = records_of(
                *(
                    record(
                        period=date(2017, int(rng.integers(1, 13)), 1),
                        partner=f"P{k}",
                        hs2=chapters[rng.integers(0, len(chapters))],
                        value_usd=float(rng.uniform(0, 5e6)),
                        submitted=ts(2018 + int(rng.integers(0, 3)), int(rng.integers(1, 13))),
                    )
                    for k in range(30)
                )
            )
            c1, c2 = ts(2019, 6), ts(2020, 6)
            kept1 = apply_vintage(records, VintagePolicy(cutoff_instant=c1))
            kept2 = apply_vintage(records, VintagePolicy(cutoff_instant=c2))
            # every row is unique (one partner per row), so rows stand for records
            assert set(kept1.tolist()) <= set(kept2.tolist())
            span = (date(2017, 1, 1), date(2017, 12, 1))
            s1 = aggregate_series(kept1, FULL_FOOD, span)
            s2 = aggregate_series(kept2, FULL_FOOD, span)
            assert all(a <= b + 1e-12 for a, b in zip(s1.values, s2.values))


class TestAggregate:
    SPAN = (date(2017, 1, 1), date(2017, 3, 1))

    def test_single_record_in_millions(self):
        s = aggregate_series(records_of(record(value_usd=5_000_000)), ANOVA_FOOD, self.SPAN)
        assert s.values[0] == pytest.approx(5.0)

    def test_two_partners_add(self):
        records = records_of(
            record(partner="DEU", value_usd=3e6),
            record(partner="USA", value_usd=4e6),
        )
        s = aggregate_series(records, ANOVA_FOOD, self.SPAN)
        assert s.values[0] == pytest.approx(7.0)

    def test_empty_month_is_zero(self):
        s = aggregate_series(records_of(record()), ANOVA_FOOD, self.SPAN)
        assert s.values[2] == 0.0

    def test_category_filter(self):
        records = records_of(record(hs2="02", value_usd=1e6), record(hs2="30", value_usd=9e6))
        s = aggregate_series(records, MEDICINES, self.SPAN)
        assert s.values[0] == pytest.approx(9.0)

    def test_duplicate_keys_sum_with_warning(self):
        records = records_of(record(value_usd=1e6), record(value_usd=2e6))
        with pytest.warns(UserWarning, match="duplicate"):
            s = aggregate_series(records, ANOVA_FOOD, self.SPAN)
        assert s.values[0] == pytest.approx(3.0)

    def test_additivity_over_disjoint_sets(self):
        rng = np.random.default_rng(11)
        chapters = sorted(FULL_FOOD.codes)
        records = records_of(
            *(
                record(
                    period=date(2017, int(rng.integers(1, 4)), 1),
                    partner=f"P{k}",
                    hs2=chapters[int(rng.integers(0, len(chapters)))],
                    value_usd=float(rng.uniform(0, 1e6)),
                )
                for k in range(60)
            )
        )
        part_a = CategorySet("a", frozenset({"02", "03", "04"}))
        part_b = CategorySet("b", FULL_FOOD.codes - part_a.codes)
        sa = aggregate_series(records, part_a, self.SPAN)
        sb = aggregate_series(records, part_b, self.SPAN)
        s_all = aggregate_series(records, FULL_FOOD, self.SPAN)
        for va, vb, vt in zip(sa.values, sb.values, s_all.values):
            assert va + vb == pytest.approx(vt, abs=1e-12)


class TestCategorySets:
    def test_builtin_membership(self):
        assert ANOVA_FOOD.codes == {"02", "03", "04", "06", "07", "08", "20", "21", "22", "24"}
        assert MEDICINES.codes == {"30"}
        assert FULL_FOOD.codes - ANOVA_FOOD.codes == {f"{c}" for c in range(10, 20)}

    def test_invalid_codes_rejected(self):
        with pytest.raises(ValueError):
            CategorySet("bad", frozenset({"2"}))
        with pytest.raises(ValueError):
            CategorySet("empty", frozenset())


class TestCategoryShare:
    def test_subset_equals_total(self):
        records = records_of(record(hs2="02", value_usd=5e6), record(hs2="04", value_usd=5e6))
        assert category_share(records, FULL_FOOD, FULL_FOOD, 2017) == 1.0

    def test_zero_valued_subset(self):
        records = records_of(
            record(hs2="02", value_usd=5e6),
            record(hs2="10", value_usd=0.0, partner="USA"),
        )
        cereals = CategorySet("cereals", frozenset({"10"}))
        assert category_share(records, cereals, FULL_FOOD, 2017) == 0.0

    def test_zero_total_errors(self):
        with pytest.raises(DataError, match="undefined share"):
            category_share(records_of(), ANOVA_FOOD, FULL_FOOD, 2017)

    def test_not_a_subset_errors(self):
        with pytest.raises(ValueError, match="not a subset"):
            category_share(records_of(record()), FULL_FOOD, ANOVA_FOOD, 2017)

    def test_year_filter(self):
        records = records_of(
            record(period=date(2017, 5, 1), hs2="10", value_usd=1e6),
            record(period=date(2018, 5, 1), hs2="02", value_usd=9e6),
        )
        cereals = CategorySet("cereals", frozenset({"10"}))
        assert category_share(records, cereals, FULL_FOOD, 2017) == 1.0


class TestAggregateMatchesReference:
    """Masks and ``bincount`` give the per-record loop's series bit for bit,
    and its duplicate count, on random record arrays, cutoffs and sets."""

    CODES = ("02", "04", "10", "17", "22", "30")
    FIRST_MONTH = np.datetime64("2016-11")
    # mixed magnitudes, so that a sum of three or more depends on its order
    VALUES = st.floats(0, 1e10, allow_nan=False, allow_infinity=False) | st.sampled_from(
        [0.0, 0.1, 0.7, 1e-300, 3.3e6, 123456789.123]
    )
    ROWS = st.tuples(
        st.integers(0, 5).map(FIRST_MONTH.__add__),  # few months, so they collect rows
        st.sampled_from(["VEN", "COL"]),
        st.sampled_from(["P1", "P2", "DEU7", "P12345"]),
        st.sampled_from(CODES),
        VALUES,
        # submitted (and last updated) on one of a few hours, so cutoffs hit them
        st.integers(0, 48).map(lambda h: np.datetime64("2018-01-01T00") + np.timedelta64(h, "h")),
    )

    @settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=200,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rows=st.lists(ROWS, max_size=120),
        cutoff_hour=st.none() | st.integers(-1, 49),
        codes=st.sets(st.sampled_from(CODES), min_size=1),
        start=st.integers(-2, 5),
        length=st.integers(1, 9),  # up to 2016-09..2017-05, past the data at each end
    )
    def test_vintage_series_and_duplicates(self, rows, cutoff_hour, codes, start, length):
        records = record_array(row + row[-1:] for row in rows)
        category = CategorySet("drawn", frozenset(codes))
        first = (self.FIRST_MONTH + start).item()
        span = (first, (self.FIRST_MONTH + start + length - 1).item())
        cutoff = None
        kept = records
        if cutoff_hour is not None:
            cutoff = ts(2018, 1, 1) + timedelta(hours=cutoff_hour)
            kept = apply_vintage(records, VintagePolicy(cutoff))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = aggregate_series(kept, category, span)

        want, duplicates = reference_series(records, category, span, cutoff)
        assert [v.hex() for v in got.values] == [v.hex() for v in want]
        expected = [
            f"{duplicates} duplicate period/reporter/partner/hs2 rows summed "
            "while aggregating 'drawn'"
        ]
        assert [str(w.message) for w in caught] == (expected if duplicates else [])


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _past_the_hour(v):
    return v[:11] + "24" + v[13:]


#: One field of a canonical row and what is done to it. Some make a row
#: that the row-wise parse accepts in another form, the rest a bad row.
MUTATIONS = (
    ("reporter_code", lambda v: f" {v}"),
    ("partner_code", lambda v: f"{v}\t"),
    ("partner_code", lambda v: "  "),
    ("period", lambda v: f" {v} "),
    ("hs2_code", lambda v: f"{v} "),
    ("value_usd", lambda v: f" {v} "),
    ("first_submitted_at", lambda v: f"{v} "),
    ("last_updated_at", lambda v: f" {v}"),
    ("first_submitted_at", lambda v: v[:-1] + "z"),
    ("first_submitted_at", lambda v: v[:-1] + "+01:00"),
    ("last_updated_at", lambda v: v[:-1] + "+01:00"),
    ("first_submitted_at", lambda v: v[:-1] + ".250Z"),
    ("last_updated_at", lambda v: v[:-1] + ".999999Z"),
    ("first_submitted_at", lambda v: v[:10]),
    ("first_submitted_at", lambda v: v[:10] + "Z"),
    ("period", lambda v: "000001"),
    ("period", lambda v: "201213"),
    ("first_submitted_at", lambda v: "2012-02-30T00:00:00Z"),
    ("first_submitted_at", lambda v: "2013-02-29T00:00:00Z"),
    ("first_submitted_at", lambda v: "1900-02-29T00:00:00Z"),
    ("first_submitted_at", lambda v: "2012-04-31T00:00:00Z"),
    ("first_submitted_at", lambda v: "2013-00-10T00:00:00Z"),
    ("first_submitted_at", _past_the_hour),
    ("first_submitted_at", lambda v: v[:10] + " " + v[11:]),
    ("last_updated_at", lambda v: v.replace("-", "/")),
    ("last_updated_at", lambda v: v[:14] + "60" + v[16:]),
    ("first_submitted_at", lambda v: v[:17] + "60" + v[19:]),
    ("first_submitted_at", lambda v: "0000-01-01T00:00:00Z"),
    ("first_submitted_at", lambda v: "+" + v[1:]),  # a signed year, read by numpy alone
    ("period", lambda v: v.translate(ARABIC_INDIC)),
    ("hs2_code", lambda v: v.translate(ARABIC_INDIC)),
    ("value_usd", lambda v: v.translate(ARABIC_INDIC)),
    ("last_updated_at", lambda v: v.translate(ARABIC_INDIC)),
    ("value_usd", lambda v: "1_000"),
    ("value_usd", lambda v: "nan"),
    ("value_usd", lambda v: "inf"),
    ("value_usd", lambda v: "1e400"),
    ("value_usd", lambda v: "-0"),
    ("value_usd", lambda v: "-5"),
    ("value_usd", lambda v: v + "\x00"),
    ("hs2_code", lambda v: v + "\x00"),
    ("first_submitted_at", lambda v: "9999-12-31T23:59:59Z"),
    ("hs2_code", lambda v: "00"),
    ("hs2_code", lambda v: "7"),
)

#: Data rows in a file whose mutated rows all sit in its first chunk.
SHORT_ROWS = 40


@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    """The header and 9 partner-suffixed copies of the demo fixture's rows
    (more than one parse chunk); the first chunk of them as CSV text, and
    its row-wise parse."""
    with open(FIXTURES / "demo_records.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    rows = [[*r[:2], f"{r[2]}{j}", *r[3:]] for j in range(9) for r in rows]
    first_chunk = _csv_text(rows[: trade_ingest._CHUNK_ROWS])
    path = tmp_path_factory.mktemp("canonical") / "first_chunk.csv"
    path.write_text(_csv_text([header]) + first_chunk, encoding="utf-8", newline="")
    return header, rows, first_chunk, reference_rows(path)


def _csv_text(rows) -> str:
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue()


def _outcome(parse, path):
    """``parse(path)``'s dtype and bytes, or its row error."""
    try:
        records = parse(path)
    except RecordParseError as e:
        return ("error", e.row, e.field, str(e))
    return ("records", records.dtype, records.tobytes())


class TestParseMatchesRowWise:
    """The vectorized parse gives what ``_parse_row`` row by row gives:
    the same record array to the byte, or the same row error."""

    SETTINGS = dict(
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @settings(max_examples=200, **SETTINGS)
    @given(position=st.integers(0, SHORT_ROWS - 1), mutation=st.sampled_from(MUTATIONS))
    def test_mutated_row_in_the_first_chunk(self, canonical, tmp_path_factory, position, mutation):
        self.check(canonical, tmp_path_factory.mktemp("mutated"), position, mutation, False)

    # fewer examples: each parses a whole canonical chunk before the mutated row
    @settings(max_examples=10, **SETTINGS)
    @given(position=st.integers(0, SHORT_ROWS - 1), mutation=st.sampled_from(MUTATIONS))
    def test_mutated_row_past_the_first_chunk(self, canonical, tmp_path_factory, position, mutation):
        self.check(canonical, tmp_path_factory.mktemp("mutated"), position, mutation, True)

    @staticmethod
    def check(canonical, work, position, mutation, past_first_chunk):
        header, rows, first_chunk, first_chunk_parsed = canonical
        rows = [list(r) for r in rows[:SHORT_ROWS]]
        field, mutate = mutation
        rows[position][header.index(field)] = mutate(rows[position][header.index(field)])
        path, rest = work / "records.csv", work / "rest.csv"
        rest.write_text(_csv_text([header, *rows]), encoding="utf-8", newline="")
        if past_first_chunk:
            # the first chunk is canonical, so only the rest is parsed row by row here
            skip = trade_ingest._CHUNK_ROWS
            text = _csv_text([header]) + first_chunk + _csv_text(rows)
            path.write_text(text, encoding="utf-8", newline="")

            def reference(_):
                return record_array(first_chunk_parsed + reference_rows(rest, first_row=skip + 1))

        else:
            path = rest
            reference = reference_parse_records
        assert _outcome(parse_records, path) == _outcome(reference, path)

    LAYOUTS = {
        "blank lines": "{h}\r\n\r\n{a}\n\n{b}\n\n",
        "crlf": "{h}\r\n{a}\r\n{b}\r\n",
        "quoted fields": '{h}\n"201504","VEN","DEU","02","5e6","2015-08-03T10:15:00Z",'
        '"2015-09-01T00:00:00Z"\n{b}\n',
        "quoted newline": '{h}\n201504,VEN,"DE\nU",02,5e6,2015-08-03T10:15:00Z,'
        "2015-09-01T00:00:00Z\n{b}\n",
        "lone carriage return": "{h}\n{a}\r{b}\n",
        "carriage return in a field": "{h}\n{a}\n201504,VE\rN,USA,30,1,2015-09-10T00:00:00Z,"
        "2016-01-01T00:00:00Z\n",
        "no trailing newline": "{h}\n{a}\n{b}",
        "trailing blank lines": "{h}\n{a}\n{b}\n\n\r\n\n",
        "more fields than the header": "{h}\n{a},extra\n{b}\n",
        "short row": "{h}\n{a}\n{b_short}\n",
        "reordered and extra columns": "note,last_updated_at,value_usd,first_submitted_at,"
        "hs2_code,partner_code,reporter_code,period\n"
        '"a, b",2015-09-01T00:00:00Z,5e6,2015-08-03T10:15:00Z,02,DEU,VEN,201504\n'
        ",2016-01-01T00:00:00Z,1250000.5,2015-09-10T00:00:00Z,30,USA,VEN,201504,extra\n",
    }

    #: The layouts whose second data row is bad, and the field named.
    BAD_ROW_2 = {"short row": "last_updated_at", "carriage return in a field": "partner_code"}

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_csv_layouts(self, canonical, tmp_path, layout):
        self.check_layout(canonical, tmp_path, layout, past_first_chunk=False)

    @pytest.mark.parametrize("layout", [name for name, text in sorted(LAYOUTS.items()) if "{h}" in text])
    def test_csv_layouts_past_the_first_chunk(self, canonical, tmp_path, layout):
        """The layout's first line is the last line of a chunk whose other
        lines are canonical rows."""
        self.check_layout(canonical, tmp_path, layout, past_first_chunk=True)

    def check_layout(self, canonical, tmp_path, layout, past_first_chunk):
        """The layout gives what the row-wise parse gives."""
        header, rows = HEADER.rstrip("\n"), canonical[1][: trade_ingest._CHUNK_ROWS - 1]
        if past_first_chunk:
            header += "\r\n" + _csv_text(rows).removesuffix("\r\n")
        b = "201504,VEN,USA,30,1250000.5,2015-09-10T00:00:00Z,2016-01-01T00:00:00Z"
        path = tmp_path / "records.csv"
        path.write_bytes(
            self.LAYOUTS[layout]
            .format(
                h=header,
                a="201504,VEN,DEU,02,5e6,2015-08-03T10:15:00Z,2015-09-01T00:00:00Z",
                b=b,
                b_short=b.rpartition(",")[0],
            )
            .encode("utf-8")
        )
        got = _outcome(parse_records, path)
        assert got == _outcome(reference_parse_records, path)
        if layout in self.BAD_ROW_2:
            assert got[1:3] == (2 + past_first_chunk * len(rows), self.BAD_ROW_2[layout])
        else:
            assert got[0] == "records"
            assert len(got[2]) == got[1].itemsize * (2 + past_first_chunk * len(rows))

    @staticmethod
    def parse_without_row_wise(path, monkeypatch):
        """``parse_records(path)``, with the row-wise parse made to fail, and
        the row-wise parse's dtype and bytes for the same file."""
        want = reference_parse_records(path)

        def refuse(*args):
            raise AssertionError("a canonical row took the row-wise parse")

        monkeypatch.setattr(trade_ingest, "_parse_row", refuse)
        got = parse_records(path)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
        return got

    @pytest.mark.parametrize("scale", [1, 3])
    def test_canonical_files_never_take_the_row_wise_path(self, tmp_path, monkeypatch, scale):
        """The demo fixture and a x3 benchmark set parse as whole columns:
        falling back to the row-wise parse is a silent slowdown."""
        path = FIXTURES / "demo_records.csv"
        if scale > 1:
            path = tmp_path / "scaled.csv"
            script = REPO_ROOT / "bench" / "make_scaled.py"
            argv = ["--k", str(scale), "--seed", "1", "--out", str(path)]
            subprocess.run([sys.executable, str(script), *argv], check=True, capture_output=True)
        assert len(self.parse_without_row_wise(path, monkeypatch)) == 1944 * scale

    def test_calendar_edges_never_take_the_row_wise_path(self, tmp_path, monkeypatch):
        """The canonical check is no stricter than the calendar: leap days
        and the first and last instants of years 1-9999 are canonical, and
        so are LF and CRLF line ends, blank lines and a missing last newline."""
        path = tmp_path / "records.csv"
        path.write_bytes(
            HEADER.encode()
            + b"201202,VEN,DEU,02,1,2012-02-29T00:00:00Z,2012-02-29T23:59:59Z\r\n\n\r\n"
            + b"200002,VEN,USA,02,1,2000-02-29T12:00:00Z,9999-12-31T23:59:59Z\n"
            + b"000101,VEN,BRA,30,2.5e6,0001-01-01T00:00:00Z,0001-01-01T00:00:00Z"
        )
        got = self.parse_without_row_wise(path, monkeypatch)
        assert got.last_updated_at[1] == np.datetime64("9999-12-31T23:59:59")
