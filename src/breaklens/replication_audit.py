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
from .series import MonthlySeries
from .trade_ingest import CategorySet, VintagePolicy, aggregate_series, apply_vintage
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


def _overlap(a: MonthlySeries, b: MonthlySeries, origin: date):
    """Months from ``origin`` at which both series have a value, and the two values."""
    ta, xa = a.to_arrays(origin)
    tb, xb = b.to_arrays(origin)
    t, ia, ib = np.intersect1d(ta, tb, assume_unique=True, return_indices=True)
    return t, xa[ia], xb[ib]


def _paired(a: MonthlySeries, b: MonthlySeries, origin: date):
    """:func:`_overlap` of series that share at least 3 months, and its correlation:
    with a constant side, 1.0 if the other is a shifted copy and NaN otherwise."""
    t, xa, xb = _overlap(a, b, origin)
    if len(t) < 3:
        raise DataError(f"insufficient overlap: {len(t)} common non-missing months, need >= 3")
    if np.std(xa) == 0.0 or np.std(xb) == 0.0:
        correlation = 1.0 if np.allclose(xa - xa.mean(), xb - xb.mean()) else float("nan")
    else:
        correlation = float(np.corrcoef(xa, xb)[0, 1])
    return t, xa, xb, correlation


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
    t, xa, xb, correlation = _paired(a, b, cutoff_month)
    is_post = t >= 0
    return SeriesComparison(
        correlation=correlation,
        max_abs_diff=float(np.max(np.abs(xa - xb))),
        n_overlap=len(t),
        means_a=_means(xa, is_post),
        means_b=_means(xb, is_post),
    )


@dataclass(frozen=True)
class VintageSearchResult:
    candidates: tuple[tuple[datetime, float], ...]
    best: datetime


def _distance(target: MonthlySeries, candidate: MonthlySeries, metric: str) -> float:
    _, xa, xb, correlation = _paired(target, candidate, target.start_month)
    if metric == RMS_DIFFERENCE:
        return float(np.sqrt(np.mean((xa - xb) ** 2)))
    return 2.0 if np.isnan(correlation) else 1.0 - correlation


def search_vintage_date(
    raw_records: np.recarray,
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
        reconstructed = aggregate_series(apply_vintage(raw_records, policy), category_set, span)
        scored.append((policy.cutoff_instant, _distance(target, reconstructed, metric)))
    best = min(scored, key=lambda pair: (pair[1], pair[0]))[0]
    return VintageSearchResult(candidates=tuple(scored), best=best)


@dataclass(frozen=True)
class CoefficientAudit:
    """Paired interrupted-trend results for two versions of one series."""

    fit_a: TrendBreakFit
    fit_b: TrendBreakFit
    comparison: SeriesComparison


def coefficient_audit(
    a: MonthlySeries, b: MonthlySeries, spec: TrendBreakSpec
) -> CoefficientAudit:
    """Fit the trend-break model on both series and pair the results."""
    return CoefficientAudit(
        fit_a=fit_trend_break(a, spec),
        fit_b=fit_trend_break(b, spec),
        comparison=compare_series(a, b, spec.cutoff_month),
    )
