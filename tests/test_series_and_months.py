import math
import warnings
from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breaklens.errors import DataError, EstimationError
from breaklens.months import (
    add_months,
    format_month,
    format_timestamp,
    month_diff,
    month_range,
    parse_month,
    parse_period,
    parse_timestamp,
)
from breaklens.rdd_local_poly import RddSpec, _series_points
from breaklens.replication_audit import _paired
from breaklens.series import MonthlySeries, SeriesMeta, read_series_csv, write_series_csv
from breaklens.trend_break import TrendBreakSpec, _window_rows, log_transform
from util import (
    reference_log_transform,
    reference_overlap,
    reference_series_points,
    reference_to_arrays,
    reference_window_rows,
)


class TestMonths:
    def test_arithmetic(self):
        assert add_months(date(2017, 8, 1), -28) == date(2015, 4, 1)
        assert add_months(date(2017, 8, 1), 28) == date(2019, 12, 1)
        assert month_diff(date(2019, 12, 1), date(2017, 8, 1)) == 28

    def test_range_inclusive(self):
        months = month_range(date(2019, 11, 1), date(2020, 2, 1))
        assert [format_month(m) for m in months] == ["2019-11", "2019-12", "2020-01", "2020-02"]

    def test_period_parse(self):
        assert parse_period("201708") == date(2017, 8, 1)
        with pytest.raises(ValueError):
            parse_period("201713")
        with pytest.raises(ValueError):
            parse_period("2017-08")

    def test_month_parse_both_forms(self):
        assert parse_month("2017-08") == parse_month("201708")

    @pytest.mark.parametrize("token", ["201708", "2017-08"])
    def test_month_digits_are_ascii(self, token):
        with pytest.raises(ValueError):
            parse_month(token.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")))

    def test_timestamp_normalization(self):
        z = parse_timestamp("2020-10-01T12:30:45Z")
        offset = parse_timestamp("2020-10-01T14:30:45+02:00")
        naive = parse_timestamp("2020-10-01 12:30:45.999")
        assert z == offset == naive
        assert z.tzinfo == timezone.utc
        assert format_timestamp(z) == "2020-10-01T12:30:45Z"

    def test_bare_date_is_midnight_utc(self):
        assert parse_timestamp("2020-10-01") == datetime(2020, 10, 1, tzinfo=timezone.utc)


class TestMonthlySeries:
    def test_consecutive_index(self):
        s = MonthlySeries(date(2019, 11, 1), (1.0, None, 3.0))
        assert s.end_month == date(2020, 1, 1)
        assert math.isnan(s.values[1])
        assert list(s.months())[-1] == date(2020, 1, 1)

    def test_values_are_a_read_only_float64_copy(self):
        source = np.array([1.0, 2.0])
        s = MonthlySeries(date(2019, 1, 1), source)
        assert s.values.dtype == np.float64
        with pytest.raises(ValueError):
            s.values[0] = 5.0
        source[0] = 5.0
        assert s.values[0] == 1.0

    def test_none_and_nan_are_missing(self):
        s = MonthlySeries(date(2019, 1, 1), [1, None, float("nan")])
        assert s.values[0] == 1.0
        assert np.isnan(s.values[1:]).all()

    @pytest.mark.parametrize(
        "values, message",
        [
            ((1.0, float("inf"), -1.0), "non-finite value at 2019-02"),
            ((1.0, float("-inf")), "non-finite value at 2019-02"),
            ((1.0, None, -0.5, float("inf")), "negative level at 2019-03: -0.5"),
        ],
    )
    def test_first_bad_month_is_named(self, values, message):
        with pytest.raises(DataError, match=message):
            MonthlySeries(date(2019, 1, 1), values)

    def test_levels_must_be_nonnegative(self):
        with pytest.raises(DataError, match="negative level"):
            MonthlySeries(date(2019, 1, 1), (1.0, -0.1))

    @pytest.mark.parametrize(
        "values, meta, message",
        [
            ((), SeriesMeta(), "^a monthly series needs at least one month$"),
            ((1.0,), SeriesMeta(transform="sqrt"), "^unknown transform tag: 'sqrt'$"),
        ],
        ids=["no-month", "unknown-transform"],
    )
    def test_series_needs_a_month_and_a_known_tag(self, values, meta, message):
        with pytest.raises(DataError, match=message):
            MonthlySeries(date(2019, 1, 1), values, meta)

    def test_log_series_may_be_negative(self):
        s = MonthlySeries(date(2019, 1, 1), (-1.0, 0.5), SeriesMeta(transform="log"))
        assert s.values[0] == -1.0

    def test_to_arrays_drops_missing(self):
        s = MonthlySeries(date(2019, 1, 1), (1.0, None, 3.0))
        t, y = s.to_arrays(date(2019, 1, 1))
        assert list(t) == [0.0, 2.0]
        assert list(y) == [1.0, 3.0]


class TestSeriesCsv:
    def test_roundtrip(self, tmp_path):
        s = MonthlySeries(date(2015, 4, 1), (1.5, None, 0.25))
        path = tmp_path / "series.csv"
        write_series_csv(s, path)
        back = read_series_csv(path)
        assert back.start_month == s.start_month
        assert np.array_equal(back.values, s.values, equal_nan=True)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_at_its_line(self, tmp_path, token):
        path = tmp_path / "nan.csv"
        path.write_text(f"month,value\n2015-04,1.0\n2015-05,{token}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"nan.csv: line 3: non-finite value '{token}'"):
            read_series_csv(path)

    def test_gap_in_months_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "month,value_usd_millions\n2015-04,1.0\n2015-06,2.0\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match="consecutive"):
            read_series_csv(path)

    def test_period_form_accepted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("month,value\n201504,1.0\n201505,2.0\n", encoding="utf-8")
        s = read_series_csv(path)
        assert s.start_month == date(2015, 4, 1)


def hexes(values) -> list:
    """Each value's ``float.hex``, ``None`` for a missing one (None or NaN)."""
    return [None if v is None or math.isnan(v) else float(v).hex() for v in values]


FIRST = date(2015, 1, 1)
MONTHS = st.integers(0, 30).map(lambda k: add_months(FIRST, k))
LEVEL_VALUES = st.none() | st.just(0.0) | st.floats(1e-300, 1e12) | st.sampled_from([0.1, 3.3e6])
LOG_VALUES = st.none() | st.just(0.0) | st.floats(-700.0, 30.0)


@st.composite
def monthly_series(draw, transform=None, min_size=1):
    """A series with gaps and zeros; a log series also has negative values."""
    transform = transform or draw(st.sampled_from(["levels", "log"]))
    values = st.lists(LEVEL_VALUES if transform == "levels" else LOG_VALUES, min_size=min_size, max_size=40)
    label = draw(st.sampled_from([None, "food"]))
    return MonthlySeries(draw(MONTHS), draw(values), SeriesMeta(transform=transform, label=label))


SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


class TestArrayFormMatchesReference:
    """Slices and NaN masks give the month-by-month walks over ``float | None``
    values (kept in ``tests/util.py``) bit for bit."""

    @SETTINGS
    @given(series=monthly_series(), origin=MONTHS)
    def test_to_arrays(self, series, origin):
        t, y = series.to_arrays(origin)
        want_t, want_y = reference_to_arrays(series, origin)
        assert (t.dtype, y.dtype) == (want_t.dtype, want_y.dtype) == (np.float64, np.float64)
        assert hexes(t) == hexes(want_t)
        assert hexes(y) == hexes(want_y)

    @SETTINGS
    @given(series=monthly_series(min_size=6), data=st.data(), as_post=st.booleans())
    def test_window_rows(self, series, data, as_post):
        pre, post = data.draw(st.integers(3, 12)), data.draw(st.integers(3, 12))
        # the cutoff's position: the fit window fits, or leaves the series by a month
        at = data.draw(st.integers(pre - 1, max(pre, len(series) - post + 1)))
        spec = TrendBreakSpec(series.month_at(at), pre, post, series.meta.transform, as_post)
        if not series.covers(spec.window_start, spec.window_end):
            with pytest.raises(EstimationError, match="fit window"):
                _window_rows(series, spec)
            return
        t, y = _window_rows(series, spec)
        want_t, want_y = reference_window_rows(series, spec)
        assert hexes(t) == hexes(want_t)
        assert hexes(y) == hexes(want_y)

    @SETTINGS
    @given(series=monthly_series(), data=st.data(), cutoff=MONTHS)
    def test_series_points(self, series, data, cutoff):
        # the bandwidth sample ends before, meets, covers or starts after the span
        start = data.draw(st.integers(-12, len(series) + 3))
        end = data.draw(st.integers(start, start + len(series) + 12))
        sample = (series.month_at(start), series.month_at(end))
        spec = RddSpec(cutoff, bandwidth_sample=sample)
        if end < 0 or start >= len(series):
            with pytest.raises(EstimationError, match="^bandwidth sample does not intersect the series$"):
                _series_points(series, spec)
            return
        t, y = _series_points(series, spec)
        want_t, want_y = reference_series_points(series, spec)
        assert (t.dtype, y.dtype) == (np.float64, np.float64)
        assert hexes(t) == hexes(want_t)
        assert hexes(y) == hexes(want_y)

    @SETTINGS
    @given(a=monthly_series(), b=monthly_series(), origin=MONTHS)
    def test_overlap(self, a, b, origin):
        months, want_a, want_b = reference_overlap(a, b)
        if len(months) < 3:
            with pytest.raises(DataError, match=f"^insufficient overlap: {len(months)} common"):
                _paired(a.to_arrays(origin), b.to_arrays(origin))
            return
        t, xa, xb, _ = _paired(a.to_arrays(origin), b.to_arrays(origin))
        assert t.tolist() == [month_diff(m, origin) for m in months]
        assert hexes(xa) == hexes(want_a)
        assert hexes(xb) == hexes(want_b)

    @SETTINGS
    @given(series=monthly_series("levels"))
    def test_log_transform(self, series):
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = log_transform(series)
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want, dropped = reference_log_transform(series)
        assert hexes(got.values) == hexes(want)
        assert got.meta.n_nonpositive == dropped
        assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
        assert not got.values.flags.writeable
