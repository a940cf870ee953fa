"""Interrupted-trend regression around a known cutoff month.

Fits ``y = a0 + a1 D + a2 t + a3 t D`` where t counts months from the cutoff
(t = 0 at the cutoff month) and D switches on at the cutoff. a1 is the jump
in level, a3 the change in monthly slope. Because the model is saturated,
(a0, a2) equal the pre-segment line and (a0+a1, a2+a3) the post-segment line.

Also provides the pre-trend counterfactual projection and its feasibility
diagnostic: a levels projection that crosses zero cannot describe imports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from .errors import EstimationError, SpecError, require_choice
from .months import add_months, format_month
from .ols import CLASSICAL, SE_TYPES, fit_ols
from .series import LEVELS, LOG, TRANSFORMS, MonthlySeries

PRE = "pre"
POST = "post"


@dataclass(frozen=True)
class TrendBreakSpec:
    """Window and conventions for the interrupted-trend fit.

    The cutoff month itself belongs to the post segment (D = 1 at t = 0)
    unless ``treat_cutoff_as_post`` is flipped. Windows are in months:
    ``pre_window`` months before the cutoff and ``post_window`` months from
    the cutoff on, i.e. t in [-pre_window, post_window - 1].
    """

    cutoff_month: date
    pre_window: int = 28
    post_window: int = 29
    transform: str = LEVELS
    treat_cutoff_as_post: bool = True
    se_type: str = CLASSICAL
    hac_lags: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "cutoff_month", date(self.cutoff_month.year, self.cutoff_month.month, 1)
        )
        for name in ("pre_window", "post_window"):
            if getattr(self, name) < 3:
                raise SpecError(name, f"must be >= 3 months, got {getattr(self, name)}")
        require_choice("transform", self.transform, TRANSFORMS)
        require_choice("se_type", self.se_type, SE_TYPES)
        if self.hac_lags is not None and self.hac_lags < 0:
            raise SpecError("hac_lags", f"must be >= 0, got {self.hac_lags}")

    @property
    def window_start(self) -> date:
        return add_months(self.cutoff_month, -self.pre_window)

    @property
    def window_end(self) -> date:
        return add_months(self.cutoff_month, self.post_window - 1)

    def indicator(self, t: int) -> int:
        if self.treat_cutoff_as_post:
            return 1 if t >= 0 else 0
        return 1 if t > 0 else 0


@dataclass(frozen=True)
class TrendBreakFit:
    alpha0: float
    alpha1: float
    alpha2: float
    alpha3: float
    se: tuple[float, float, float, float]
    t_stats: tuple[float, float, float, float]
    p_values: tuple[float, float, float, float]
    r_squared: float
    residuals: tuple[float, ...]
    t_values: tuple[int, ...]  # months from cutoff for each used observation
    n_pre: int
    n_post: int
    spec: TrendBreakSpec

    @property
    def n(self) -> int:
        return self.n_pre + self.n_post

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.alpha0, self.alpha1, self.alpha2, self.alpha3)


def log_transform(series: MonthlySeries) -> MonthlySeries:
    """Natural log of each positive value; zero or negative become missing.

    The number of values dropped this way is recorded on the metadata and
    surfaced as a warning, never as -inf.
    """
    if series.meta.transform == LOG:
        raise ValueError("series is already in logs")
    values: list[float | None] = []
    dropped = 0
    for v in series.values:
        if v is None:
            values.append(None)
        elif v > 0:
            values.append(math.log(v))
        else:
            values.append(None)
            dropped += 1
    if dropped:
        warnings.warn(
            f"log transform dropped {dropped} nonpositive value(s) "
            f"in {series.meta.label or 'series'}"
        )
    meta = replace(series.meta, transform=LOG, n_nonpositive=dropped)
    return MonthlySeries(series.start_month, tuple(values), meta)


def _window_rows(
    series: MonthlySeries, spec: TrendBreakSpec
) -> tuple[list[int], list[float]]:
    if not series.covers(spec.window_start, spec.window_end):
        raise EstimationError(
            f"series spans {format_month(series.start_month)}.."
            f"{format_month(series.end_month)} but the fit window is "
            f"{format_month(spec.window_start)}..{format_month(spec.window_end)}"
        )
    ts, ys = [], []
    for t in range(-spec.pre_window, spec.post_window):
        v = series.value_at(add_months(spec.cutoff_month, t))
        if v is not None:
            ts.append(t)
            ys.append(v)
    return ts, ys


def _resolve_transform(series: MonthlySeries, spec: TrendBreakSpec) -> MonthlySeries:
    if spec.transform == LOG and series.meta.transform == LEVELS:
        return log_transform(series)
    if spec.transform == LEVELS and series.meta.transform == LOG:
        raise ValueError("cannot fit a levels specification on a log series")
    return series


def fit_trend_break(series: MonthlySeries, spec: TrendBreakSpec) -> TrendBreakFit:
    """Estimate the four-parameter interrupted-trend model by OLS.

    Missing months are dropped row-wise; the trend regressor keeps calendar
    spacing. Standard errors are classical homoskedastic OLS by default
    (``spec.se_type='newey_west'`` switches to Bartlett-window HAC errors).
    """
    series = _resolve_transform(series, spec)
    ts, ys = _window_rows(series, spec)
    d = [spec.indicator(t) for t in ts]
    n_post = sum(d)
    n_pre = len(d) - n_post
    if n_pre < 2 or n_post < 2:
        raise EstimationError(
            f"need at least 2 non-missing observations per segment, "
            f"got {n_pre} pre and {n_post} post"
        )
    t = np.asarray(ts, dtype=float)
    dd = np.asarray(d, dtype=float)
    X = np.column_stack([np.ones_like(t), dd, t, t * dd])
    fit = fit_ols(X, np.asarray(ys), se_type=spec.se_type, hac_lags=spec.hac_lags)
    return TrendBreakFit(
        alpha0=float(fit.coef[0]),
        alpha1=float(fit.coef[1]),
        alpha2=float(fit.coef[2]),
        alpha3=float(fit.coef[3]),
        se=tuple(float(s) for s in fit.se),
        t_stats=tuple(float(v) for v in fit.t_stats),
        p_values=tuple(float(v) for v in fit.p_values),
        r_squared=float(fit.r_squared),
        residuals=tuple(float(r) for r in fit.residuals),
        t_values=tuple(ts),
        n_pre=n_pre,
        n_post=n_post,
        spec=spec,
    )


@dataclass(frozen=True)
class SegmentTrend:
    intercept: float
    slope: float
    se: float
    t_stat: float
    n: int


def segment_trend(
    series: MonthlySeries, spec: TrendBreakSpec, side: str
) -> SegmentTrend:
    """Simple OLS line fitted on one side of the cutoff only."""
    if side not in (PRE, POST):
        raise ValueError(f"side must be 'pre' or 'post', got {side!r}")
    series = _resolve_transform(series, spec)
    ts, ys = _window_rows(series, spec)
    picked = [
        (t, y)
        for t, y in zip(ts, ys)
        if (spec.indicator(t) == 1) == (side == POST)
    ]
    if len(picked) < 3:
        raise EstimationError(
            f"{side} side has {len(picked)} non-missing observations, need >= 3"
        )
    t = np.asarray([p[0] for p in picked], dtype=float)
    y = np.asarray([p[1] for p in picked], dtype=float)
    X = np.column_stack([np.ones_like(t), t])
    fit = fit_ols(X, y, se_type=spec.se_type, hac_lags=spec.hac_lags)
    return SegmentTrend(
        intercept=float(fit.coef[0]),
        slope=float(fit.coef[1]),
        se=float(fit.se[1]),
        t_stat=float(fit.t_stats[1]),
        n=len(picked),
    )


@dataclass(frozen=True)
class CounterfactualPath:
    """Pre-cutoff trend projected past the cutoff: cf(t) = a0 + a2 t, t >= 0."""

    months: tuple[date, ...]
    values: tuple[float, ...]
    zero_crossing_t: int | None
    zero_crossing_month: date | None
    alpha1: float
    alpha3: float
    transform: str

    def gap(self, t: float) -> float:
        """Fitted post line minus counterfactual at t: a1 + a3 t."""
        return self.alpha1 + self.alpha3 * t


def counterfactual_projection(fit: TrendBreakFit, horizon: int) -> CounterfactualPath:
    """Project the pre-break line over t in [0, horizon].

    In levels the first month strictly below zero (if any) is reported; a
    projection of imports below zero is infeasible by construction.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    cutoff = fit.spec.cutoff_month
    months = tuple(add_months(cutoff, t) for t in range(horizon + 1))
    values = tuple(fit.alpha0 + fit.alpha2 * t for t in range(horizon + 1))
    crossing_t = None
    if fit.spec.transform == LEVELS:
        # strictly below zero beyond rounding error, so a projection that
        # touches zero exactly does not count as crossing
        tol = 1e-9 * max(1.0, abs(fit.alpha0))
        for t, v in enumerate(values):
            if v < -tol:
                crossing_t = t
                break
    return CounterfactualPath(
        months=months,
        values=values,
        zero_crossing_t=crossing_t,
        zero_crossing_month=None if crossing_t is None else months[crossing_t],
        alpha1=fit.alpha1,
        alpha3=fit.alpha3,
        transform=fit.spec.transform,
    )


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    infeasible_at_t: int | None = None
    infeasible_at_month: date | None = None


def feasibility_check(path: CounterfactualPath) -> FeasibilityResult:
    """Flag a levels projection that implies negative imports inside the horizon."""
    if path.transform != LEVELS:
        raise ValueError("feasibility defined on levels only")
    if path.zero_crossing_t is None:
        return FeasibilityResult(feasible=True)
    return FeasibilityResult(
        feasible=False,
        infeasible_at_t=path.zero_crossing_t,
        infeasible_at_month=path.zero_crossing_month,
    )


def annualize_log_slope(b: float) -> float:
    """Monthly log-point slope compounded to a fractional change per year."""
    if not math.isfinite(b):
        raise ValueError("slope must be finite")
    return math.exp(12.0 * b) - 1.0
