import math
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from breaklens.errors import DataError
from breaklens.replication_audit import (
    DISTANCE_METRICS,
    ONE_MINUS_CORRELATION,
    _distance,
    compare_series,
    search_vintage_date,
)
from breaklens.series import MonthlySeries, SeriesMeta
from breaklens.trade_ingest import ANOVA_FOOD, CategorySet, aggregate_series, record_array
from breaklens.trend_break import TrendBreakSpec, fit_trend_break
from util import (
    CUTOFF,
    WINDOW_START,
    piecewise,
    record,
    records_of,
    reference_series,
    series_from_fn,
    ts,
)

SPEC = TrendBreakSpec(cutoff_month=CUTOFF)


def noisy_series(seed=0, transform="levels"):
    rng = np.random.default_rng(seed)
    values = tuple(
        float(max(0.1, 100 - 1.5 * k + 5 * rng.standard_normal())) for k in range(57)
    )
    return MonthlySeries(WINDOW_START, values, SeriesMeta(transform=transform))


def in_window(*values):
    """A series over the fit window whose first months are ``values``, the rest missing."""
    return MonthlySeries(WINDOW_START, (*values, *[None] * (57 - len(values))))


class TestCompareSeries:
    def test_identity(self):
        s = noisy_series()
        cmp = compare_series(s, s, SPEC)
        assert cmp.correlation == pytest.approx(1.0)
        assert cmp.max_abs_diff == 0.0
        assert cmp.n_overlap == 57
        assert cmp.means_a == cmp.means_b

    def test_sign_flip(self):
        s = noisy_series(transform="log")
        flipped = MonthlySeries(
            s.start_month, tuple(-v for v in s.values), s.meta
        )
        cmp = compare_series(s, flipped, TrendBreakSpec(cutoff_month=CUTOFF, transform="log"))
        assert cmp.correlation == pytest.approx(-1.0)

    def test_symmetry(self):
        a, b = noisy_series(1), noisy_series(2)
        ab, ba = compare_series(a, b, SPEC), compare_series(b, a, SPEC)
        assert ab.correlation == pytest.approx(ba.correlation, abs=1e-12)
        assert ab.max_abs_diff == ba.max_abs_diff
        assert ab.means_a == ba.means_b and ab.means_b == ba.means_a

    def test_correlation_invariant_to_positive_affine(self):
        a, b = noisy_series(3), noisy_series(4)
        scaled = MonthlySeries(b.start_month, tuple(2.5 * v + 7 for v in b.values), b.meta)
        c0 = compare_series(a, b, SPEC).correlation
        c1 = compare_series(a, scaled, SPEC).correlation
        assert c1 == pytest.approx(c0, abs=1e-12)

    def test_pre_post_split_cutoff_in_post(self):
        s = series_from_fn(piecewise(10, 0.0, 20, 0.0))
        cmp = compare_series(s, s, SPEC)
        assert cmp.means_a.pre == pytest.approx(10.0)
        assert cmp.means_a.post == pytest.approx(20.0)
        assert cmp.means_a.overall == pytest.approx((28 * 10 + 29 * 20) / 57)

    def test_overlap_respects_missing(self):
        a = noisy_series(5)
        values = list(a.values)
        values[0] = None
        values[30] = None
        b = MonthlySeries(a.start_month, tuple(values), a.meta)
        cmp = compare_series(a, b, SPEC)
        assert cmp.n_overlap == 55

    def test_insufficient_overlap_errors(self):
        a = in_window(1.0, 2.0, 3.0, 4.0)
        b = in_window(None, None, 3.0, 4.0, 5.0, 6.0)
        message = "^insufficient overlap: 2 common non-missing months, need >= 3$"
        with pytest.raises(DataError, match=message):
            compare_series(a, b, SPEC)
        with pytest.raises(DataError, match=message):  # the vintage search pairs them alike
            _distance(a, b, ONE_MINUS_CORRELATION)

    @pytest.mark.parametrize(
        "other, correlation, distance",
        [((5.0, 5.0, 5.0, 5.0), 1.0, 0.0), ((1.0, 2.0, 3.0, 4.0), math.nan, 2.0)],
        ids=["shifted-copy", "not-a-copy"],
    )
    def test_constant_side(self, other, correlation, distance):
        a, b = in_window(2.0, 2.0, 2.0, 2.0), in_window(*other)
        got = compare_series(a, b, SPEC).correlation
        assert got == correlation or math.isnan(got) and math.isnan(correlation)
        assert _distance(a, b, ONE_MINUS_CORRELATION) == distance


class TestVintageSearch:
    def _planted_records(self):
        # three submission waves: value revisions arrive in Oct and Nov 2020
        records = []
        for k in range(12):
            period = date(2017, 1 + k % 12, 1)
            records.append(
                record(period=period, partner="P1", value_usd=2e6, submitted=ts(2019, 6))
            )
            if k % 2 == 0:
                records.append(
                    record(period=period, partner="P2", value_usd=1e6, submitted=ts(2020, 10, 20))
                )
            if k % 3 == 0:
                records.append(
                    record(period=period, partner="P3", value_usd=3e6, submitted=ts(2020, 11, 25))
                )
        return records_of(*records)

    def test_planted_optimum_is_exact(self):
        records = self._planted_records()
        true_cutoff = ts(2020, 11, 1)
        target = aggregate_series(
            records[records.first_submitted_at <= np.datetime64(true_cutoff.replace(tzinfo=None))],
            ANOVA_FOOD,
            (date(2017, 1, 1), date(2017, 12, 1)),
        )
        # exactly one candidate sits between the Oct-20 and Nov-25 submission
        # waves, so only it reproduces the target dataset
        candidates = [ts(2020, 10, 1), ts(2020, 11, 5), ts(2020, 12, 3)]
        result = search_vintage_date(records, target, candidates, ANOVA_FOOD)
        assert result.best == ts(2020, 11, 5)
        best_distance = dict(result.candidates)[result.best]
        assert best_distance == pytest.approx(0.0, abs=1e-12)
        others = [d for when, d in result.candidates if when != result.best]
        assert min(others) > 1e-6

    def test_single_repeated_candidate(self):
        records = self._planted_records()
        target = aggregate_series(records, ANOVA_FOOD, (date(2017, 1, 1), date(2017, 12, 1)))
        when = ts(2020, 12, 31)
        result = search_vintage_date(records, target, [when, when], ANOVA_FOOD)
        assert result.best == when

    def test_tie_breaks_to_earliest(self):
        records = self._planted_records()
        target = aggregate_series(records, ANOVA_FOOD, (date(2017, 1, 1), date(2017, 12, 1)))
        # both candidates postdate every submission, so distances tie at 0
        result = search_vintage_date(
            records, target, [ts(2021, 6, 1), ts(2021, 1, 1)], ANOVA_FOOD
        )
        assert result.best == ts(2021, 1, 1)

    def test_rms_metric_flag(self):
        records = self._planted_records()
        span = (date(2017, 1, 1), date(2017, 12, 1))
        full = aggregate_series(records, ANOVA_FOOD, span)
        # a missing target month leaves 11 months of overlap
        target = MonthlySeries(full.start_month, [None, *full.values[1:]])
        candidates = [ts(2020, 10, 1), ts(2020, 11, 1), ts(2021, 1, 1)]
        result = search_vintage_date(records, target, candidates, ANOVA_FOOD, metric="rms_difference")
        assert result.best == ts(2021, 1, 1)
        for (when, distance), cutoff in zip(result.candidates, candidates):
            assert when == cutoff
            reconstructed, _ = reference_series(records, ANOVA_FOOD, span, cutoff)
            diffs = [(a - b) ** 2 for a, b in zip(target.values[1:].tolist(), reconstructed[1:])]
            assert distance == pytest.approx(math.sqrt(sum(diffs) / len(diffs)), rel=1e-12)

    def test_distance_shrinks_toward_planted_cutoff(self):
        # submissions accrue monotonically, so later candidates (closer to
        # the planted truth) can only get closer to the target
        records = self._planted_records()
        true_cutoff = ts(2020, 12, 15)
        target = aggregate_series(
            records[records.first_submitted_at <= np.datetime64(true_cutoff.replace(tzinfo=None))],
            ANOVA_FOOD,
            (date(2017, 1, 1), date(2017, 12, 1)),
        )
        candidates = [ts(2020, 10, 1), ts(2020, 11, 1), ts(2020, 12, 1), ts(2020, 12, 20)]
        result = search_vintage_date(records, target, candidates, ANOVA_FOOD, metric="rms_difference")
        distances = [d for _, d in result.candidates]
        assert distances == sorted(distances, reverse=True)
        # the last two candidates both reproduce the target (no submissions in
        # between), so the tie breaks toward the earlier one
        assert result.best == ts(2020, 12, 1)

    def test_needs_two_candidates(self):
        records = self._planted_records()
        target = aggregate_series(records, ANOVA_FOOD, (date(2017, 1, 1), date(2017, 12, 1)))
        with pytest.raises(ValueError):
            search_vintage_date(records, target, [ts(2020, 10, 1)], ANOVA_FOOD)

    def test_unknown_metric(self):
        records = self._planted_records()
        target = aggregate_series(records, ANOVA_FOOD, (date(2017, 1, 1), date(2017, 12, 1)))
        with pytest.raises(ValueError, match="^unknown distance metric: 'rank'$"):
            search_vintage_date(records, target, [ts(2020, 10, 1), ts(2020, 11, 1)], ANOVA_FOOD, metric="rank")


class TestSearchOverTheSetsRows:
    """The audit searches only the audited set's rows, every period kept: the
    distances, the best vintage and the duplicate warnings are those of the
    search over all records."""

    CATEGORY = CategorySet("drawn", frozenset({"02", "04"}))
    FIRST_MONTH = np.datetime64("2016-11")
    # months 0-9 around a target over months 3-6; chapters in and out of the set
    ROWS = st.tuples(
        st.integers(0, 9).map(FIRST_MONTH.__add__),
        st.sampled_from(["VEN", "COL"]),
        st.sampled_from(["P1", "P2"]),
        st.sampled_from(["02", "04", "10", "30"]),
        st.floats(0, 1e10),
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
        rows=st.lists(ROWS, min_size=10, max_size=80),
        copies=st.lists(st.integers(0, 79), max_size=20),
        target=st.lists(st.floats(0, 1e3), min_size=4, max_size=4),
        cutoff_hours=st.lists(st.integers(-1, 49), min_size=2, max_size=5),
        metric=st.sampled_from(DISTANCE_METRICS),
    )
    def test_same_search_as_over_all_records(self, rows, copies, target, cutoff_hours, metric):
        # a copy of a drawn row is a duplicate key, in or out of the set and the span
        records = record_array(row + row[-1:] for row in rows + [rows[i % len(rows)] for i in copies])
        target = MonthlySeries((self.FIRST_MONTH + 3).item(), target)
        cutoffs = [ts(2018, 1, 1) + timedelta(hours=h) for h in cutoff_hours]
        searches = []
        for searched in (records, records.compress(self.CATEGORY.mask(records))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = search_vintage_date(searched, target, cutoffs, self.CATEGORY, metric=metric)
            candidates = [(when, distance.hex()) for when, distance in result.candidates]
            searches.append((candidates, result.best, [str(w.message) for w in caught]))
        assert searches[0] == searches[1]


def paired(a, b, spec=SPEC):
    """The audit's two trend fits and its comparison of ``a`` and ``b``."""
    return fit_trend_break(a, spec), fit_trend_break(b, spec), compare_series(a, b, spec)


class TestCoefficientAudit:
    def test_same_series_identical_rows(self):
        s = noisy_series(7)
        fit_a, fit_b, comparison = paired(s, s)
        assert fit_a.coefficients == fit_b.coefficients
        assert fit_a.se == fit_b.se
        assert comparison.correlation == pytest.approx(1.0)

    def test_constant_shift_moves_only_intercept(self):
        a = noisy_series(8)
        b = MonthlySeries(a.start_month, tuple(v + 25.0 for v in a.values), a.meta)
        fit_a, fit_b, comparison = paired(a, b)
        assert fit_b.alpha0 == pytest.approx(fit_a.alpha0 + 25.0, abs=1e-8)
        assert fit_b.alpha1 == pytest.approx(fit_a.alpha1, abs=1e-8)
        assert fit_b.alpha2 == pytest.approx(fit_a.alpha2, abs=1e-8)
        assert fit_b.alpha3 == pytest.approx(fit_a.alpha3, abs=1e-8)
        means_a, means_b = comparison.means_a, comparison.means_b
        assert means_b.overall == pytest.approx(means_a.overall + 25.0)

    def test_means_split_the_window_as_the_fits_do(self):
        # the series is the fit window; with the cutoff month in the pre
        # segment, the fits and the means both read 29 pre and 28 post months
        a, b = noisy_series(9), noisy_series(10)
        spec = TrendBreakSpec(cutoff_month=CUTOFF, treat_cutoff_as_post=False)
        fit_a, _, comparison = paired(a, b, spec)
        assert (fit_a.n_pre, fit_a.n_post) == (29, 28)
        for series, means in ((a, comparison.means_a), (b, comparison.means_b)):
            assert means.pre == float(np.mean(series.values[:29]))
            assert means.post == float(np.mean(series.values[29:]))

    def test_comparison_reads_the_fits_window(self):
        # 80 months from 2014-01: 15 before the window, its 57, then 8 after
        rng = np.random.default_rng(11)
        values = 100 + 5 * rng.standard_normal(80)
        a = MonthlySeries(date(2014, 1, 1), values)
        b = MonthlySeries(date(2014, 1, 1), values + rng.standard_normal(80))
        fit_a, _, comparison = paired(a, b)
        assert (fit_a.n_pre, fit_a.n_post) == (28, 29)
        assert comparison.n_overlap == fit_a.n == 57
        for series, means in ((a, comparison.means_a), (b, comparison.means_b)):
            assert means.overall == float(np.mean(series.values[15:72]))
            assert means.pre == float(np.mean(series.values[15:43]))
            assert means.post == float(np.mean(series.values[43:72]))
        assert comparison.max_abs_diff == float(np.max(np.abs(a.values[15:72] - b.values[15:72])))
        assert comparison.correlation == float(np.corrcoef(a.values[15:72], b.values[15:72])[0, 1])
