import math
from datetime import date

import numpy as np
import pytest

from breaklens.errors import DataError
from breaklens.replication_audit import (
    ONE_MINUS_CORRELATION,
    _distance,
    compare_series,
    coefficient_audit,
    search_vintage_date,
)
from breaklens.series import MonthlySeries, SeriesMeta
from breaklens.trade_ingest import ANOVA_FOOD, aggregate_series
from breaklens.trend_break import TrendBreakSpec
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


class TestCompareSeries:
    def test_identity(self):
        s = noisy_series()
        cmp = compare_series(s, s, CUTOFF)
        assert cmp.correlation == pytest.approx(1.0)
        assert cmp.max_abs_diff == 0.0
        assert cmp.n_overlap == 57
        assert cmp.means_a == cmp.means_b

    def test_sign_flip(self):
        s = noisy_series(transform="log")
        flipped = MonthlySeries(
            s.start_month, tuple(-v for v in s.values), s.meta
        )
        cmp = compare_series(s, flipped, CUTOFF)
        assert cmp.correlation == pytest.approx(-1.0)

    def test_symmetry(self):
        a, b = noisy_series(1), noisy_series(2)
        ab, ba = compare_series(a, b, CUTOFF), compare_series(b, a, CUTOFF)
        assert ab.correlation == pytest.approx(ba.correlation, abs=1e-12)
        assert ab.max_abs_diff == ba.max_abs_diff
        assert ab.means_a == ba.means_b and ab.means_b == ba.means_a

    def test_correlation_invariant_to_positive_affine(self):
        a, b = noisy_series(3), noisy_series(4)
        scaled = MonthlySeries(b.start_month, tuple(2.5 * v + 7 for v in b.values), b.meta)
        c0 = compare_series(a, b, CUTOFF).correlation
        c1 = compare_series(a, scaled, CUTOFF).correlation
        assert c1 == pytest.approx(c0, abs=1e-12)

    def test_pre_post_split_cutoff_in_post(self):
        s = series_from_fn(piecewise(10, 0.0, 20, 0.0))
        cmp = compare_series(s, s, CUTOFF)
        assert cmp.means_a.pre == pytest.approx(10.0)
        assert cmp.means_a.post == pytest.approx(20.0)
        assert cmp.means_a.overall == pytest.approx((28 * 10 + 29 * 20) / 57)

    def test_overlap_respects_missing(self):
        a = noisy_series(5)
        values = list(a.values)
        values[0] = None
        values[30] = None
        b = MonthlySeries(a.start_month, tuple(values), a.meta)
        cmp = compare_series(a, b, CUTOFF)
        assert cmp.n_overlap == 55

    def test_insufficient_overlap_errors(self):
        a = MonthlySeries(date(2015, 1, 1), (1.0, 2.0, 3.0, 4.0))
        b = MonthlySeries(date(2015, 3, 1), (3.0, 4.0, 5.0, 6.0))
        message = "^insufficient overlap: 2 common non-missing months, need >= 3$"
        with pytest.raises(DataError, match=message):
            compare_series(a, b, CUTOFF)
        with pytest.raises(DataError, match=message):  # the vintage search pairs them alike
            _distance(a, b, ONE_MINUS_CORRELATION)

    @pytest.mark.parametrize(
        "other, correlation, distance",
        [((5.0, 5.0, 5.0, 5.0), 1.0, 0.0), ((1.0, 2.0, 3.0, 4.0), math.nan, 2.0)],
        ids=["shifted-copy", "not-a-copy"],
    )
    def test_constant_side(self, other, correlation, distance):
        a = MonthlySeries(date(2015, 1, 1), (2.0, 2.0, 2.0, 2.0))
        b = MonthlySeries(date(2015, 1, 1), other)
        got = compare_series(a, b, CUTOFF).correlation
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


class TestCoefficientAudit:
    def test_same_series_identical_rows(self):
        s = noisy_series(7)
        audit = coefficient_audit(s, s, SPEC)
        assert audit.fit_a.coefficients == audit.fit_b.coefficients
        assert audit.fit_a.se == audit.fit_b.se
        assert audit.comparison.correlation == pytest.approx(1.0)

    def test_constant_shift_moves_only_intercept(self):
        a = noisy_series(8)
        b = MonthlySeries(a.start_month, tuple(v + 25.0 for v in a.values), a.meta)
        audit = coefficient_audit(a, b, SPEC)
        assert audit.fit_b.alpha0 == pytest.approx(audit.fit_a.alpha0 + 25.0, abs=1e-8)
        assert audit.fit_b.alpha1 == pytest.approx(audit.fit_a.alpha1, abs=1e-8)
        assert audit.fit_b.alpha2 == pytest.approx(audit.fit_a.alpha2, abs=1e-8)
        assert audit.fit_b.alpha3 == pytest.approx(audit.fit_a.alpha3, abs=1e-8)
        means_a, means_b = audit.comparison.means_a, audit.comparison.means_b
        assert means_b.overall == pytest.approx(means_a.overall + 25.0)
