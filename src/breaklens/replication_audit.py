"""Agreement checks between independently obtained monthly series.

Used to compare a series extracted from published figures against a
reconstruction from vintage-filtered raw records, and to locate the vintage
cutoff that best explains a target series.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from .errors import DataError
from .months import month_diff
from .series import MonthlySeries
from .trade_ingest import CategorySet, RawTradeRecord, VintagePolicy, aggregate_series, apply_vintage
from .trend_break import TrendBreakFit, TrendBreakSpec, fit_trend_break

ONE_MINUS_CORRELATION = "one_minus_correlation"
RMS_DIFFERENCE = "rms_difference"
DISTANCE_METRICS = (ONE_MINUS_CORRELATION, RMS_DIFFERENCE)


@dataclass(frozen=True)
class SegmentMeans:
    overall: float
    pre: float
    post: float


@dataclass(frozen=True)
class SeriesComparison:
    correlation: float
    max_abs_diff: float
    n_overlap: int
    means_a: SegmentMeans
    means_b: SegmentMeans


def _overlap(a: MonthlySeries, b: MonthlySeries):
    start = max(a.start_month, b.start_month)
    end = min(a.end_month, b.end_month)
    months, xa, xb = [], [], []
    if month_diff(end, start) >= 0:
        ia, ib = a.index_of(start), b.index_of(start)
        for k in range(month_diff(end, start) + 1):
            va, vb = a.values[ia + k], b.values[ib + k]
            if va is not None and vb is not None:
                months.append(a.month_at(ia + k))
                xa.append(va)
                xb.append(vb)
    return months, np.asarray(xa), np.asarray(xb)


def _means(values: np.ndarray, is_post: np.ndarray) -> SegmentMeans:
    def safe_mean(x):
        return float(np.mean(x)) if len(x) else float("nan")

    return SegmentMeans(
        overall=safe_mean(values),
        pre=safe_mean(values[~is_post]),
        post=safe_mean(values[is_post]),
    )


def compare_series(
    a: MonthlySeries, b: MonthlySeries, cutoff_month: date
) -> SeriesComparison:
    """Correlation, per-argument means and max deviation over the overlap.

    Statistics use months where both series are non-missing; the pre/post
    split puts the cutoff month in the post segment. Correlation and maximum
    absolute difference are symmetric in the arguments.
    """
    months, xa, xb = _overlap(a, b)
    if len(months) < 3:
        raise DataError(
            f"insufficient overlap: {len(months)} common non-missing months, need >= 3"
        )
    if np.std(xa) == 0.0 or np.std(xb) == 0.0:
        correlation = 1.0 if np.allclose(xa - xa.mean(), xb - xb.mean()) else float("nan")
    else:
        correlation = float(np.corrcoef(xa, xb)[0, 1])
    is_post = np.asarray([month_diff(m, cutoff_month) >= 0 for m in months])
    return SeriesComparison(
        correlation=correlation,
        max_abs_diff=float(np.max(np.abs(xa - xb))),
        n_overlap=len(months),
        means_a=_means(xa, is_post),
        means_b=_means(xb, is_post),
    )


@dataclass(frozen=True)
class VintageSearchResult:
    candidates: tuple[tuple[datetime, float], ...]
    best: datetime
    distance_metric: str


def _distance(target: MonthlySeries, candidate: MonthlySeries, metric: str) -> float:
    _, xa, xb = _overlap(target, candidate)
    if len(xa) < 3:
        raise DataError("insufficient overlap between target and reconstruction")
    if metric == RMS_DIFFERENCE:
        return float(np.sqrt(np.mean((xa - xb) ** 2)))
    if np.std(xa) == 0.0 or np.std(xb) == 0.0:
        return 0.0 if np.allclose(xa - xa.mean(), xb - xb.mean()) else 2.0
    return 1.0 - float(np.corrcoef(xa, xb)[0, 1])


def search_vintage_date(
    raw_records: list[RawTradeRecord],
    target: MonthlySeries,
    candidate_dates: list[datetime],
    category_set: CategorySet,
    metric: str = ONE_MINUS_CORRELATION,
) -> VintageSearchResult:
    """Find the vintage cutoff whose reconstruction is closest to the target.

    Each candidate is evaluated by vintage-filtering the raw records,
    aggregating over the target's month span and measuring the distance to
    the target (1 - correlation by default, RMS difference by flag). Ties
    break toward the earliest candidate.
    """
    if len(candidate_dates) < 2:
        raise ValueError("need at least 2 candidate dates")
    if metric not in DISTANCE_METRICS:
        raise ValueError(f"unknown distance metric: {metric!r}")
    span = (target.start_month, target.end_month)
    scored: list[tuple[datetime, float]] = []
    for cutoff in candidate_dates:
        policy = VintagePolicy(cutoff_instant=cutoff)
        reconstructed = aggregate_series(
            apply_vintage(raw_records, policy),
            category_set,
            span,
            vintage_cutoff=policy.cutoff_instant,
        )
        scored.append((policy.cutoff_instant, _distance(target, reconstructed, metric)))
    best = min(scored, key=lambda pair: (pair[1], pair[0]))[0]
    return VintageSearchResult(
        candidates=tuple(scored), best=best, distance_metric=metric
    )


@dataclass(frozen=True)
class CoefficientAudit:
    """Paired interrupted-trend results for two versions of one series."""

    fit_a: TrendBreakFit
    fit_b: TrendBreakFit
    means_a: SegmentMeans
    means_b: SegmentMeans
    comparison: SeriesComparison


def coefficient_audit(
    a: MonthlySeries, b: MonthlySeries, spec: TrendBreakSpec
) -> CoefficientAudit:
    """Fit the trend-break model on both series and pair the results."""
    fit_a = fit_trend_break(a, spec)
    fit_b = fit_trend_break(b, spec)
    comparison = compare_series(a, b, spec.cutoff_month)
    return CoefficientAudit(
        fit_a=fit_a,
        fit_b=fit_b,
        means_a=comparison.means_a,
        means_b=comparison.means_b,
        comparison=comparison,
    )
