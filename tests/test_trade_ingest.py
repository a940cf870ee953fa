import textwrap
from datetime import date, timezone

import numpy as np
import pytest

from breaklens.errors import DataError, RecordParseError
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
    serialize_records,
)
from util import record, ts

HEADER = "period,reporter_code,partner_code,hs2_code,value_usd,first_submitted_at,last_updated_at\n"


def write(tmp_path, body, name="records.csv"):
    path = tmp_path / name
    path.write_text(HEADER + textwrap.dedent(body), encoding="utf-8")
    return path


class TestParseRecords:
    def test_empty_file_with_header(self, tmp_path):
        assert parse_records(write(tmp_path, "")) == []

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
        assert records[0].period == date(2015, 4, 1)
        assert records[0].hs2 == "02"
        assert records[0].value_usd == 5_000_000.0
        # offsets are normalized to UTC: 00:00+02:00 is 22:00 the day before
        assert records[1].first_submitted_at.hour == 22
        assert records[1].first_submitted_at.day == 9
        assert records[1].first_submitted_at.tzinfo == timezone.utc
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
        assert parse_records(out) == first


class TestVintage:
    def test_cutoff_after_everything_is_identity(self):
        records = [record(submitted=ts(2019, m)) for m in (1, 5, 9)]
        policy = VintagePolicy(cutoff_instant=ts(2020, 1))
        assert apply_vintage(records, policy) == records

    def test_cutoff_before_everything_is_empty(self):
        records = [record(submitted=ts(2019, m)) for m in (1, 5, 9)]
        assert apply_vintage(records, VintagePolicy(cutoff_instant=ts(2018, 1))) == []

    def test_mid_cutoff_keeps_earlier_submission(self):
        early = record(submitted=ts(2020, 9, 15))
        late = record(partner="USA", submitted=ts(2020, 11, 2))
        kept = apply_vintage([early, late], VintagePolicy(cutoff_instant=ts(2020, 10, 1)))
        assert kept == [early]

    def test_boundary_instant_is_kept(self):
        boundary = record(submitted=ts(2020, 10, 1))
        kept = apply_vintage([boundary], VintagePolicy(cutoff_instant=ts(2020, 10, 1)))
        assert kept == [boundary]

    def test_updated_value_is_retained(self):
        # submitted before the cutoff but updated long after: still kept,
        # and the (latest) value on file is what aggregates
        r = record(value_usd=7e6, submitted=ts(2020, 9, 1), updated=ts(2022, 5, 1))
        kept = apply_vintage([r], VintagePolicy(cutoff_instant=ts(2020, 10, 1)))
        assert kept == [r]
        assert kept[0].value_usd == 7e6

    def test_monotonicity_randomized(self):
        rng = np.random.default_rng(3)
        chapters = sorted(FULL_FOOD.codes)
        for _ in range(50):
            records = [
                record(
                    period=date(2017, int(rng.integers(1, 13)), 1),
                    partner=f"P{k}",
                    hs2=chapters[rng.integers(0, len(chapters))],
                    value_usd=float(rng.uniform(0, 5e6)),
                    submitted=ts(2018 + int(rng.integers(0, 3)), int(rng.integers(1, 13))),
                )
                for k in range(30)
            ]
            c1, c2 = ts(2019, 6), ts(2020, 6)
            kept1 = apply_vintage(records, VintagePolicy(cutoff_instant=c1))
            kept2 = apply_vintage(records, VintagePolicy(cutoff_instant=c2))
            assert set(map(id, kept1)) <= set(map(id, kept2))
            span = (date(2017, 1, 1), date(2017, 12, 1))
            s1 = aggregate_series(kept1, FULL_FOOD, span)
            s2 = aggregate_series(kept2, FULL_FOOD, span)
            assert all(a <= b + 1e-12 for a, b in zip(s1.values, s2.values))


class TestAggregate:
    SPAN = (date(2017, 1, 1), date(2017, 3, 1))

    def test_single_record_in_millions(self):
        s = aggregate_series([record(value_usd=5_000_000)], ANOVA_FOOD, self.SPAN)
        assert s.value_at(date(2017, 1, 1)) == pytest.approx(5.0)

    def test_two_partners_add(self):
        records = [
            record(partner="DEU", value_usd=3e6),
            record(partner="USA", value_usd=4e6),
        ]
        s = aggregate_series(records, ANOVA_FOOD, self.SPAN)
        assert s.value_at(date(2017, 1, 1)) == pytest.approx(7.0)

    def test_empty_month_is_zero(self):
        s = aggregate_series([record()], ANOVA_FOOD, self.SPAN)
        assert s.value_at(date(2017, 3, 1)) == 0.0

    def test_category_filter(self):
        records = [record(hs2="02", value_usd=1e6), record(hs2="30", value_usd=9e6)]
        s = aggregate_series(records, MEDICINES, self.SPAN)
        assert s.value_at(date(2017, 1, 1)) == pytest.approx(9.0)

    def test_duplicate_keys_sum_with_warning(self):
        records = [record(value_usd=1e6), record(value_usd=2e6)]
        with pytest.warns(UserWarning, match="duplicate"):
            s = aggregate_series(records, ANOVA_FOOD, self.SPAN)
        assert s.value_at(date(2017, 1, 1)) == pytest.approx(3.0)

    def test_additivity_over_disjoint_sets(self):
        rng = np.random.default_rng(11)
        chapters = sorted(FULL_FOOD.codes)
        records = [
            record(
                period=date(2017, int(rng.integers(1, 4)), 1),
                partner=f"P{k}",
                hs2=chapters[int(rng.integers(0, len(chapters)))],
                value_usd=float(rng.uniform(0, 1e6)),
            )
            for k in range(60)
        ]
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
        records = [record(hs2="02", value_usd=5e6), record(hs2="04", value_usd=5e6)]
        assert category_share(records, FULL_FOOD, FULL_FOOD, 2017) == 1.0

    def test_zero_valued_subset(self):
        records = [
            record(hs2="02", value_usd=5e6),
            record(hs2="10", value_usd=0.0, partner="USA"),
        ]
        cereals = CategorySet("cereals", frozenset({"10"}))
        assert category_share(records, cereals, FULL_FOOD, 2017) == 0.0

    def test_zero_total_errors(self):
        with pytest.raises(DataError, match="undefined share"):
            category_share([], ANOVA_FOOD, FULL_FOOD, 2017)

    def test_not_a_subset_errors(self):
        with pytest.raises(ValueError, match="not a subset"):
            category_share([record()], FULL_FOOD, ANOVA_FOOD, 2017)

    def test_year_filter(self):
        records = [
            record(period=date(2017, 5, 1), hs2="10", value_usd=1e6),
            record(period=date(2018, 5, 1), hs2="02", value_usd=9e6),
        ]
        cereals = CategorySet("cereals", frozenset({"10"}))
        assert category_share(records, cereals, FULL_FOOD, 2017) == 1.0
