"""Interrupted-trend regression around a known cutoff month.

Fits ``y = a0 + a1 D + a2 t + a3 t D`` where t counts months from the cutoff
(t = 0 at the cutoff month) and D switches on at the cutoff. a1 is the jump
in level, a3 the change in monthly slope. Because the model is saturated,
(a0, a2) equal the pre-segment line and (a0+a1, a2+a3) the post-segment line.

The fit owns the gap between its post line and the pre-trend counterfactual,
a1 + a3 t (``TrendBreakFit.gap``). ``counterfactual_projection`` lays the
pre-trend line out month by month, and ``feasibility_check`` finds the first
month it goes below zero: a levels projection that crosses zero cannot
describe imports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from .errors import EstimationError, SpecError, require_choice, require_integer
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
    the cutoff on, i.e. t in [-pre_window, post_window - 1]. ``transform``
    declares the form of the series the fit is given; it transforms nothing.
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
            require_integer(name, getattr(self, name))
            if getattr(self, name) < 3:
                raise SpecError(name, f"must be >= 3 months, got {getattr(self, name)}")
        require_choice("transform", self.transform, TRANSFORMS)
        require_choice("se_type", self.se_type, SE_TYPES)
        if self.hac_lags is not None:
            require_integer("hac_lags", self.hac_lags)
            if self.hac_lags < 0:
                raise SpecError("hac_lags", f"must be >= 0, got {self.hac_lags}")

    @property
    def window_start(self) -> date:
        return add_months(self.cutoff_month, -self.pre_window)

    @property
    def window_end(self) -> date:
        return add_months(self.cutoff_month, self.post_window - 1)

    def indicator(self, t):
        """D at months from the cutoff ``t``, a number or an array of them."""
        return t >= 0 if self.treat_cutoff_as_post else t > 0


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

    def gap(self, t: float) -> float:
        """Fitted post line minus the pre-trend counterfactual at t: a1 + a3 t."""
        return self.alpha1 + self.alpha3 * t


def log_transform(series: MonthlySeries) -> MonthlySeries:
    """Natural log of each positive value; zero or negative become missing.

    The number of values dropped this way is recorded on the metadata and
    surfaced as a warning, never as -inf.
    """
    if series.meta.transform == LOG:
        raise ValueError("series is already in logs")
    positive = series.values > 0
    dropped = int(np.count_nonzero(series.values <= 0))  # a missing month is neither
    values = np.full(len(series), np.nan)
    # math.log per value: np.log may differ from it in the last bit
    values[positive] = [math.log(v) for v in series.values[positive].tolist()]
    if dropped:
        warnings.warn(
            f"log transform dropped {dropped} nonpositive value(s) "
            f"in {series.meta.label or 'series'}"
        )
    meta = replace(series.meta, transform=LOG, n_nonpositive=dropped)
    return MonthlySeries(series.start_month, values, meta)


def _window_rows(series: MonthlySeries, spec: TrendBreakSpec) -> tuple[np.ndarray, np.ndarray]:
    """Months from the cutoff and values of the present months in the fit window."""
    if series.meta.transform != spec.transform:
        raise ValueError(f"cannot fit a {spec.transform} specification on a {series.meta.transform} series")
    if not series.covers(spec.window_start, spec.window_end):
        raise EstimationError(
            f"series spans {format_month(series.start_month)}.."
            f"{format_month(series.end_month)} but the fit window is "
            f"{format_month(spec.window_start)}..{format_month(spec.window_end)}"
        )
    return series.window(spec.window_start, spec.window_end).to_arrays(spec.cutoff_month)


def fit_trend_break(series: MonthlySeries, spec: TrendBreakSpec) -> TrendBreakFit:
    """Estimate the four-parameter interrupted-trend model by OLS.

    Missing months are dropped row-wise; the trend regressor keeps calendar
    spacing. Standard errors are classical homoskedastic OLS by default
    (``spec.se_type='newey_west'`` switches to Bartlett-window HAC errors).
    A series not in the form ``spec.transform`` names is a ValueError.
    """
    t, y = _window_rows(series, spec)
    d = spec.indicator(t).astype(float)
    n_post = int(np.count_nonzero(d))
    n_pre = len(d) - n_post
    if n_pre < 2 or n_post < 2:
        raise EstimationError(
            f"need at least 2 non-missing observations per segment, "
            f"got {n_pre} pre and {n_post} post"
        )
    X = np.column_stack([np.ones_like(t), d, t, t * d])
    fit = fit_ols(X, y, se_type=spec.se_type, hac_lags=spec.hac_lags)
    return TrendBreakFit(
        alpha0=float(fit.coef[0]),
        alpha1=float(fit.coef[1]),
        alpha2=float(fit.coef[2]),
        alpha3=float(fit.coef[3]),
        se=tuple(fit.se.tolist()),
        t_stats=tuple(fit.t_stats.tolist()),
        p_values=tuple(fit.p_values.tolist()),
        r_squared=float(fit.r_squared),
        residuals=tuple(fit.residuals.tolist()),
        t_values=tuple(t.astype(int).tolist()),
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
    t, y = _window_rows(series, spec)
    picked = spec.indicator(t) == (side == POST)
    t, y = t[picked], y[picked]
    if len(t) < 3:
        raise EstimationError(
            f"{side} side has {len(t)} non-missing observations, need >= 3"
        )
    X = np.column_stack([np.ones_like(t), t])
    fit = fit_ols(X, y, se_type=spec.se_type, hac_lags=spec.hac_lags)
    return SegmentTrend(
        intercept=float(fit.coef[0]),
        slope=float(fit.coef[1]),
        se=float(fit.se[1]),
        t_stat=float(fit.t_stats[1]),
        n=len(t),
    )


@dataclass(frozen=True)
class CounterfactualPath:
    """Pre-cutoff trend projected past the cutoff: cf(t) = a0 + a2 t, t >= 0."""

    months: tuple[date, ...]
    values: tuple[float, ...]
    transform: str


def counterfactual_projection(fit: TrendBreakFit, horizon: int) -> CounterfactualPath:
    """Project the pre-break line over t in [0, horizon]."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    cutoff = fit.spec.cutoff_month
    months = tuple(add_months(cutoff, t) for t in range(horizon + 1))
    values = tuple(fit.alpha0 + fit.alpha2 * t for t in range(horizon + 1))
    return CounterfactualPath(months=months, values=values, transform=fit.spec.transform)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    infeasible_at_t: int | None = None
    infeasible_at_month: date | None = None


def feasibility_check(path: CounterfactualPath) -> FeasibilityResult:
    """Flag a levels projection that implies negative imports inside the horizon.

    The first month strictly below zero (if any) is reported; a projection of
    imports below zero is infeasible by construction.
    """
    if path.transform != LEVELS:
        raise ValueError("feasibility defined on levels only")
    # strictly below zero beyond rounding error, so a projection that touches
    # zero exactly does not count as crossing; values[0] is a0
    tol = 1e-9 * max(1.0, abs(path.values[0]))
    for t, v in enumerate(path.values):
        if v < -tol:
            return FeasibilityResult(feasible=False, infeasible_at_t=t, infeasible_at_month=path.months[t])
    return FeasibilityResult(feasible=True)


def annualize_log_slope(b: float) -> float:
    """Monthly log-point slope compounded to a fractional change per year."""
    if not math.isfinite(b):
        raise ValueError("slope must be finite")
    return math.exp(12.0 * b) - 1.0
