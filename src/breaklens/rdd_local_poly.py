"""Local-polynomial discontinuity estimation at a time cutoff.

Level and slope discontinuities are estimated as the difference of one-sided
kernel-weighted polynomial fits at the cutoff (the right side includes t = 0).
Bandwidths come from a closed-form estimated-MSE minimizer; inference offers
conventional sandwich errors plus robust bias-corrected intervals where the
leading smoothing bias is estimated with one-order-higher local polynomials
at a pilot bandwidth and its estimation noise is folded into the variance.

The running variable is discrete monthly time; effective per-side counts are
reported prominently because mass points make the usual continuity
asymptotics an approximation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import date

import numpy as np
from scipy import stats

from .errors import EstimationError, SpecError, require_choice
from .months import month_diff
from .series import MonthlySeries

TRIANGULAR = "triangular"
UNIFORM = "uniform"
LEFT = "left"
RIGHT = "right"
LEVEL = "level"
SLOPE = "slope"
MSE_OPTIMAL = "mse_optimal"
WLS_RESIDUALS = "wls_residuals"
NEAREST_NEIGHBOR = "nearest_neighbor"
KERNELS = (TRIANGULAR, UNIFORM)
VARIANCES = (WLS_RESIDUALS, NEAREST_NEIGHBOR)

_DERIV_ORDER = {LEVEL: 0, SLOPE: 1}
_NN_NEIGHBORS = 3  # neighbors averaged by the nearest-neighbor variance
_DEFAULT_P = {LEVEL: 1, SLOPE: 2}
_Z95 = 1.96

DEFAULT_BANDWIDTH_SAMPLE = (date(2012, 1, 1), date(2020, 12, 1))


def kernel_weight(u, kernel: str = TRIANGULAR):
    """Kernel weight at normalized distance u (support |u| <= 1)."""
    arr = np.asarray(u, dtype=float)
    if kernel == TRIANGULAR:
        w = np.maximum(0.0, 1.0 - np.abs(arr))
    elif kernel == UNIFORM:
        w = (np.abs(arr) <= 1.0).astype(float)
    else:
        raise ValueError(f"unknown kernel: {kernel!r}")
    return float(w) if np.isscalar(u) else w


@dataclass(frozen=True)
class RddSpec:
    """Estimand and tuning choices for one discontinuity estimate.

    ``poly_order`` defaults to 1 for the level jump and 2 for the slope
    jump; both are overridable. ``bandwidth`` is either ``"mse_optimal"``
    or a manual width in months. The pilot (bias) bandwidth defaults to
    1.5 x the main bandwidth.
    """

    cutoff_month: date
    estimand: str = LEVEL
    poly_order: int | None = None
    kernel: str = TRIANGULAR
    bandwidth: float | str = MSE_OPTIMAL
    bandwidth_sample: tuple[date, date] = DEFAULT_BANDWIDTH_SAMPLE
    pilot_factor: float = 1.5
    pilot_bandwidth: float | None = None
    variance: str = WLS_RESIDUALS

    def __post_init__(self):
        require_choice("estimand", self.estimand, tuple(_DERIV_ORDER))
        require_choice("kernel", self.kernel, KERNELS)
        if self.poly_order is not None and self.poly_order < self.derivative_order:
            order = self.derivative_order
            raise SpecError("poly_order", f"must be >= {order} for {self.estimand}, got {self.poly_order}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != MSE_OPTIMAL:
                raise SpecError("bandwidth", f"must be {MSE_OPTIMAL!r} or a number, got {self.bandwidth!r}")
        elif self.bandwidth <= 0:
            raise SpecError("bandwidth", f"must be positive, got {self.bandwidth}")
        if self.pilot_factor < 1.0:
            raise SpecError("pilot_factor", f"must be >= 1, got {self.pilot_factor}")
        require_choice("variance", self.variance, VARIANCES)
        if self.bandwidth_sample[1] < self.bandwidth_sample[0]:
            raise SpecError("bandwidth_sample", "the end month is before the start month")

    @property
    def derivative_order(self) -> int:
        return _DERIV_ORDER[self.estimand]

    @property
    def resolved_order(self) -> int:
        return _DEFAULT_P[self.estimand] if self.poly_order is None else self.poly_order


@dataclass(frozen=True)
class RddFit:
    estimand: str
    tau: float
    se_conventional: float
    tau_bc: float
    se_robust: float
    ci_robust: tuple[float, float]
    p_conventional: float
    p_robust: float
    h_used: float
    b_used: float
    n_left: int
    n_right: int
    poly_order: int
    kernel: str


@dataclass(frozen=True)
class LocalPolyFit:
    """One-sided weighted polynomial fit evaluated at the cutoff.

    ``coef[j]`` multiplies u^j, so the conditional mean at the cutoff is
    ``coef[0]`` and the j-th derivative is j! * coef[j].
    """

    coef: tuple[float, ...]
    cov: np.ndarray
    n_effective: int
    h: float
    poly_order: int
    kernel: str
    side: str

    def derivative(self, order: int) -> float:
        return math.factorial(order) * self.coef[order]

    def derivative_se(self, order: int) -> float:
        return math.factorial(order) * math.sqrt(float(self.cov[order, order]))


class _SideFit:
    """Internals of one weighted polynomial fit, kept for bias/variance algebra."""

    __slots__ = ("beta", "proj", "idx", "u", "w", "resid", "n_effective")

    def __init__(self, beta, proj, idx, u, w, resid):
        self.beta = beta          # unscaled coefficients on u^0..u^p
        self.proj = proj          # rows map y_sub -> beta
        self.idx = idx            # positions of the used points in the side arrays
        self.u = u
        self.w = w
        self.resid = resid
        self.n_effective = len(u)


def _fit_side(u, y, p, h, kernel, label) -> _SideFit:
    w = kernel_weight(u / h, kernel)
    pos = np.flatnonzero(w > 0)
    if len(pos) < p + 1:
        raise EstimationError(
            f"{label}: only {len(pos)} observations carry positive weight "
            f"inside h={h:.4g}, need >= {p + 1}"
        )
    uu, yy, ww = u[pos], y[pos], w[pos]
    # fit in a span-scaled basis for conditioning, then unscale
    s = float(np.max(np.abs(uu))) or 1.0
    Z = np.vander(uu / s, p + 1, increasing=True)
    ZtW = Z.T * ww
    gram = ZtW @ Z
    if np.linalg.matrix_rank(gram) < p + 1:
        raise EstimationError(
            f"{label}: singular local design (p={p}, h={h:.4g}, "
            f"{len(pos)} weighted points)"
        )
    proj_scaled = np.linalg.solve(gram, ZtW)
    powers = s ** np.arange(p + 1)
    proj = proj_scaled / powers[:, None]
    beta = proj @ yy
    resid = yy - np.vander(uu, p + 1, increasing=True) @ beta
    return _SideFit(beta, proj, pos, uu, ww, resid)


def _nn_sigma2(u, y, points) -> np.ndarray:
    """Nearest-neighbor variance at the requested point indices (same side)."""
    sigma2 = np.zeros(len(points))
    for k, i in enumerate(points):
        d = np.abs(u - u[i])
        d[i] = np.inf
        j = min(_NN_NEIGHBORS, len(u) - 1)
        if j < 1:
            raise EstimationError("nearest-neighbor variance needs >= 2 points per side")
        nn = np.argpartition(d, j - 1)[:j]
        sigma2[k] = (y[i] - y[nn].mean()) ** 2 * j / (j + 1.0)
    return sigma2


def _split_sides(t, y):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(y)
    t, y = t[keep], y[keep]
    left = t < 0
    return (t[left], y[left]), (t[~left], y[~left])


def _side_parts(u, y, nu, p, kernel, h, b, variance, label):
    main = _fit_side(u, y, p, h, kernel, f"{label} side")
    pilot = _fit_side(u, y, p + 1, b, kernel, f"{label} pilot (b={b:.4g})")
    if pilot.n_effective < p + 2:
        raise EstimationError(
            f"{label} pilot window too small: {pilot.n_effective} points for order {p + 1}"
        )
    fac = math.factorial(nu)
    est = fac * main.beta[nu]
    # exact conditional bias factor: response of the main estimator to u^(p+1)
    phi = fac * float(main.proj[nu] @ main.u ** (p + 1))
    curv = pilot.beta[p + 1]
    bias = phi * curv

    if variance == NEAREST_NEIGHBOR:
        sigma2_main = _nn_sigma2(u, y, main.idx)
        sigma2_pilot = _nn_sigma2(u, y, pilot.idx)
    else:
        dfm = max(main.n_effective - (p + 1), 1)
        dfb = max(pilot.n_effective - (p + 2), 1)
        sigma2_main = main.resid**2 * (main.n_effective / dfm)
        sigma2_pilot = pilot.resid**2 * (pilot.n_effective / dfb)

    var_conv = float(np.sum((fac * main.proj[nu]) ** 2 * sigma2_main))
    # combined linear form of the bias-corrected estimate over the side points
    l_comb = np.zeros(len(u))
    np.add.at(l_comb, main.idx, fac * main.proj[nu])
    np.add.at(l_comb, pilot.idx, -phi * pilot.proj[p + 1])
    # every positively weighted main point is inside the pilot window (b >= h)
    sigma2_full = np.zeros(len(u))
    sigma2_full[pilot.idx] = sigma2_pilot
    var_rob = float(np.sum(l_comb**2 * sigma2_full))
    return {
        "est": est,
        "bias": bias,
        "var_conv": var_conv,
        "var_rob": var_rob,
        "n_effective": main.n_effective,
        "main": main,
        "pilot": pilot,
    }


def _rd_core(t, y, *, nu, p, kernel, h, b, variance):
    (ul, yl), (ur, yr) = _split_sides(t, y)
    if b < h:
        raise EstimationError(f"pilot bandwidth b={b:.4g} must be >= h={h:.4g}")
    left = _side_parts(ul, yl, nu, p, kernel, h, b, variance, "left")
    right = _side_parts(ur, yr, nu, p, kernel, h, b, variance, "right")
    tau = right["est"] - left["est"]
    bias = right["bias"] - left["bias"]
    tau_bc = tau - bias
    se_conv = math.sqrt(left["var_conv"] + right["var_conv"])
    se_rob = math.sqrt(left["var_rob"] + right["var_rob"])
    return {
        "tau": tau,
        "bias": bias,
        "tau_bc": tau_bc,
        "se_conventional": se_conv,
        "se_robust": se_rob,
        "n_left": left["n_effective"],
        "n_right": right["n_effective"],
    }


def _p_value(estimate, se) -> float:
    if se <= 0:
        return 0.0 if estimate != 0 else 1.0
    return float(2.0 * stats.norm.sf(abs(estimate) / se))


def _moment(kernel, j):
    # integral of u^j K(u) over [0, 1]
    if kernel == TRIANGULAR:
        return 1.0 / (j + 1) - 1.0 / (j + 2)
    return 1.0 / (j + 1)


def _moment_sq(kernel, j):
    # integral of u^j K(u)^2 over [0, 1]
    if kernel == TRIANGULAR:
        return 1.0 / (j + 1) - 2.0 / (j + 2) + 1.0 / (j + 3)
    return 1.0 / (j + 1)


def _kernel_constants(kernel, p, nu):
    """Asymptotic bias and variance constants of the boundary estimator."""
    idx = np.arange(p + 1)
    S = np.array([[_moment(kernel, i + j) for j in idx] for i in idx])
    c = np.array([_moment(kernel, p + 1 + j) for j in idx])
    G = np.array([[_moment_sq(kernel, i + j) for j in idx] for i in idx])
    S_inv = np.linalg.inv(S)
    c1 = math.factorial(nu) * float((S_inv @ c)[nu]) / math.factorial(p + 1)
    c2 = math.factorial(nu) ** 2 * float((S_inv @ G @ S_inv)[nu, nu])
    return c1, c2


def _curvature_and_variance(u, y, p, label):
    """Per-side global fit of order p+2: (p+1)-th derivative and residual
    variance over the months nearest the cutoff."""
    q = p + 2
    if len(u) < q + 2:
        raise EstimationError(
            f"{label} side has {len(u)} observations, need >= {q + 2} "
            f"for the order-{q} curvature fit"
        )
    s = float(np.max(np.abs(u))) or 1.0
    Z = np.vander(u / s, q + 1, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(Z, y, rcond=None)
    if rank < q + 1:
        raise EstimationError(f"{label} side curvature fit is rank deficient")
    resid = y - Z @ coef
    curvature = math.factorial(p + 1) * coef[p + 1] / s ** (p + 1)
    near = np.argsort(np.abs(u))[: min(24, len(u))]
    df_factor = len(u) / max(len(u) - (q + 1), 1)
    sigma2 = float(np.mean(resid[near] ** 2)) * df_factor
    return float(curvature), sigma2


def _min_admitting_h(u, k, kernel, pad) -> float:
    """Smallest bandwidth giving k points positive weight on this side."""
    dist = np.sort(np.abs(u))
    if len(dist) < k:
        raise EstimationError(f"side has {len(dist)} points, need >= {k}")
    d = float(dist[k - 1])
    return d if kernel == UNIFORM else d + pad


def select_bandwidth_xy(t, y, *, nu, p, kernel=TRIANGULAR) -> float:
    """Closed-form estimated-MSE-minimizing bandwidth (in running-variable units).

    Squared-bias uses per-side curvature from global polynomials of order
    p+2; the variance term uses residual variance near the cutoff and a
    local density estimate of the running variable. Falls back to a
    rule-of-thumb width when the curvature estimate is zero, and is clipped
    so each side keeps at least p+2 positively weighted points.
    """
    (ul, yl), (ur, yr) = _split_sides(t, y)
    n = len(ul) + len(ur)
    curv_l, sig2_l = _curvature_and_variance(ul, yl, p, "left")
    curv_r, sig2_r = _curvature_and_variance(ur, yr, p, "right")
    bias_gap = curv_r - ((-1.0) ** (p + 1 + nu)) * curv_l

    tt = np.concatenate([ul, ur])
    spread = float(np.std(tt))
    if spread <= 0:
        raise EstimationError("running variable is degenerate")
    exponent = 1.0 / (2 * p + 3)

    scale = max(1.0, float(np.std(np.concatenate([yl, yr]))))
    if abs(bias_gap) < 1e-12 * scale:
        warnings.warn(
            "curvature estimate is zero; falling back to rule-of-thumb bandwidth"
        )
        h = spread * n ** (-exponent)
    else:
        window = 1.06 * spread * n ** (-0.2)
        density = float(np.sum(np.abs(tt) <= window)) / (n * 2.0 * window)
        if density <= 0:
            raise EstimationError("no observations near the cutoff")
        c1, c2 = _kernel_constants(kernel, p, nu)
        numerator = (1 + 2 * nu) * c2 * (sig2_l + sig2_r)
        denominator = 2 * (p + 1 - nu) * c1**2 * bias_gap**2 * density * n
        h = (numerator / denominator) ** exponent

    gaps = np.diff(np.unique(tt))
    pad = float(np.median(gaps)) if len(gaps) else 1.0
    needed = max(
        _min_admitting_h(ul, p + 2, kernel, pad),
        _min_admitting_h(ur, p + 2, kernel, pad),
    )
    return float(max(h, needed))


def _series_points(series: MonthlySeries, spec: RddSpec):
    start, end = spec.bandwidth_sample
    lo = max(0, month_diff(start, series.start_month))
    hi = min(len(series) - 1, month_diff(end, series.start_month))
    if hi < lo:
        raise EstimationError("bandwidth sample does not intersect the series")
    window = series.window(series.month_at(lo), series.month_at(hi))
    return window.to_arrays(spec.cutoff_month)


def local_poly_fit(
    series: MonthlySeries,
    cutoff: date,
    side: str,
    p: int,
    h: float,
    kernel: str = TRIANGULAR,
) -> LocalPolyFit:
    """One-sided kernel-weighted polynomial fit at the cutoff.

    Weighted least squares of the outcome on (1, u, ..., u^p) with
    u = months from the cutoff and weights K(u/h); the right side includes
    the cutoff month itself.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    t, y = series.to_arrays(cutoff)
    keep = t < 0 if side == LEFT else t >= 0
    u, yy = t[keep], y[keep]
    fit = _fit_side(u, yy, p, h, kernel, f"{side} side")
    dfm = max(fit.n_effective - (p + 1), 1)
    sigma2 = fit.resid**2 * (fit.n_effective / dfm)
    cov = (fit.proj * sigma2) @ fit.proj.T
    return LocalPolyFit(
        coef=tuple(float(b) for b in fit.beta),
        cov=cov,
        n_effective=fit.n_effective,
        h=h,
        poly_order=p,
        kernel=kernel,
        side=side,
    )


def rd_estimate_xy(
    t,
    y,
    *,
    estimand: str = LEVEL,
    p: int | None = None,
    kernel: str = TRIANGULAR,
    bandwidth: float | str = MSE_OPTIMAL,
    pilot_factor: float = 1.5,
    pilot_bandwidth: float | None = None,
    variance: str = WLS_RESIDUALS,
) -> RddFit:
    """Discontinuity estimate on raw (months-from-cutoff, value) points."""
    nu = _DERIV_ORDER[estimand]
    order = _DEFAULT_P[estimand] if p is None else p
    if order < nu:
        raise ValueError(f"poly order {order} below derivative order {nu}")
    if isinstance(bandwidth, str):
        h = select_bandwidth_xy(t, y, nu=nu, p=order, kernel=kernel)
    else:
        h = float(bandwidth)
    b = float(pilot_bandwidth) if pilot_bandwidth is not None else pilot_factor * h
    parts = _rd_core(
        t,
        y,
        nu=nu,
        p=order,
        kernel=kernel,
        h=h,
        b=b,
        variance=variance,
    )
    ci = (
        parts["tau_bc"] - _Z95 * parts["se_robust"],
        parts["tau_bc"] + _Z95 * parts["se_robust"],
    )
    return RddFit(
        estimand=estimand,
        tau=parts["tau"],
        se_conventional=parts["se_conventional"],
        tau_bc=parts["tau_bc"],
        se_robust=parts["se_robust"],
        ci_robust=ci,
        p_conventional=_p_value(parts["tau"], parts["se_conventional"]),
        p_robust=_p_value(parts["tau_bc"], parts["se_robust"]),
        h_used=h,
        b_used=b,
        n_left=parts["n_left"],
        n_right=parts["n_right"],
        poly_order=order,
        kernel=kernel,
    )


def rd_estimate(series: MonthlySeries, spec: RddSpec) -> RddFit:
    """Discontinuity estimate for a monthly series under the given spec."""
    t, y = _series_points(series, spec)
    return rd_estimate_xy(
        t,
        y,
        estimand=spec.estimand,
        p=spec.resolved_order,
        kernel=spec.kernel,
        bandwidth=spec.bandwidth,
        pilot_factor=spec.pilot_factor,
        pilot_bandwidth=spec.pilot_bandwidth,
        variance=spec.variance,
    )

