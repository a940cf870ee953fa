"""Local-polynomial discontinuity estimation at a time cutoff.

Level and slope discontinuities are estimated as the difference of one-sided
kernel-weighted polynomial fits at the cutoff (the right side includes t = 0).
Bandwidths come from a closed-form estimated-MSE minimizer; inference offers
conventional sandwich errors plus robust bias-corrected intervals where the
leading smoothing bias is estimated with one-order-higher local polynomials
at a pilot bandwidth and its estimation noise is folded into the variance.

One ``RddSpec`` describes a fit and is validated once, when it is built.
``rd_estimate`` windows a monthly series and fits it; ``rd_estimate_xy`` fits
raw (months-from-cutoff, value) points under the same spec.

The running variable is discrete monthly time; effective per-side counts are
reported prominently because mass points make the usual continuity
asymptotics an approximation.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from .errors import EstimationError, SpecError, require_choice, require_integer, require_number
from .months import month_diff, month_index
from .series import MonthlySeries

TRIANGULAR = "triangular"
UNIFORM = "uniform"
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


def _kernel_weight(u, kernel):
    """Kernel weight at normalized distance u (support |u| <= 1)."""
    if kernel == TRIANGULAR:
        return np.maximum(0.0, 1.0 - np.abs(u))
    return (np.abs(u) <= 1.0).astype(float)


@dataclass(frozen=True)
class RddSpec:
    """Estimand and tuning choices for one discontinuity estimate.

    ``poly_order`` defaults to 1 for the level jump and 2 for the slope
    jump; both are overridable. ``bandwidth`` is either ``"mse_optimal"``
    or a manual width in months. The pilot (bias) bandwidth is
    ``pilot_factor`` (at least 1) times the main bandwidth.
    ``cutoff_month`` and ``bandwidth_sample`` place a monthly series on the
    running variable and are read only by ``rd_estimate``.
    """

    cutoff_month: date
    estimand: str = LEVEL
    poly_order: int | None = None
    kernel: str = TRIANGULAR
    bandwidth: float | str = MSE_OPTIMAL
    bandwidth_sample: tuple[date, date] = (date(2012, 1, 1), date(2020, 12, 1))
    pilot_factor: float = 1.5
    variance: str = WLS_RESIDUALS

    def __post_init__(self):
        require_choice("estimand", self.estimand, tuple(_DERIV_ORDER))
        require_choice("kernel", self.kernel, KERNELS)
        if self.poly_order is not None:
            require_integer("poly_order", self.poly_order)
            if self.poly_order < self.derivative_order:
                order = self.derivative_order
                raise SpecError("poly_order", f"must be >= {order} for {self.estimand}, got {self.poly_order}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != MSE_OPTIMAL:
                raise SpecError("bandwidth", f"must be {MSE_OPTIMAL!r} or a number, got {self.bandwidth!r}")
        else:
            require_number("bandwidth", self.bandwidth)
            if self.bandwidth <= 0:
                raise SpecError("bandwidth", f"must be positive, got {self.bandwidth}")
        require_number("pilot_factor", self.pilot_factor)
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
class _SideFit:
    """Internals of one weighted polynomial fit, kept for bias/variance algebra."""

    beta: np.ndarray   # unscaled coefficients on u^0..u^p
    proj: np.ndarray   # rows map y_sub -> beta
    idx: np.ndarray    # positions of the used points in the side arrays
    u: np.ndarray
    resid: np.ndarray

    @property
    def n_effective(self) -> int:
        return len(self.u)


def _fit_side(u, y, p, h, kernel, label) -> _SideFit:
    w = _kernel_weight(u / h, kernel)
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
    # np.linalg.matrix_rank's test without its wrapper: the rank is below
    # p + 1 when the smallest singular value is at most its tolerance, the
    # largest (svd sorts them descending) times max(shape) * eps
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= sv[0] * ((p + 1) * np.finfo(float).eps):
        raise EstimationError(
            f"{label}: singular local design (p={p}, h={h:.4g}, "
            f"{len(pos)} weighted points)"
        )
    proj_scaled = np.linalg.solve(gram, ZtW)
    powers = s ** np.arange(p + 1)
    proj = proj_scaled / powers[:, None]
    beta = proj @ yy
    resid = yy - np.vander(uu, p + 1, increasing=True) @ beta
    return _SideFit(beta, proj, pos, uu, resid)


def _nn_sigma2(u, y, points) -> np.ndarray:
    """Nearest-neighbor variance at the requested point indices (same side).

    The side has at least 2 points: its pilot fit, run first, needs p+2."""
    sigma2 = np.zeros(len(points))
    j = min(_NN_NEIGHBORS, len(u) - 1)
    for k, i in enumerate(points):
        d = np.abs(u - u[i])
        d[i] = np.inf
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


@dataclass(frozen=True)
class _SideParts:
    """One side's estimate, smoothing bias and conventional/robust variances."""

    est: float
    bias: float
    var_conv: float
    var_rob: float
    n_effective: int


def _side_parts(u, y, nu, p, kernel, h, b, variance, label) -> _SideParts:
    main = _fit_side(u, y, p, h, kernel, f"{label} side")
    pilot = _fit_side(u, y, p + 1, b, kernel, f"{label} pilot (b={b:.4g})")
    fac = math.factorial(nu)
    est = fac * main.beta[nu]
    # exact conditional bias factor: response of the main estimator to u^(p+1)
    phi = fac * float(main.proj[nu] @ main.u ** (p + 1))
    curv = pilot.beta[p + 1]
    bias = phi * curv

    # every positively weighted main point is inside the pilot window
    # (b >= h, as pilot_factor >= 1); each fit's idx is sorted
    if variance == NEAREST_NEIGHBOR:
        sigma2_pilot = _nn_sigma2(u, y, pilot.idx)
        sigma2_main = sigma2_pilot[np.searchsorted(pilot.idx, main.idx)]
    else:
        dfm = max(main.n_effective - (p + 1), 1)
        dfb = max(pilot.n_effective - (p + 2), 1)
        sigma2_main = main.resid**2 * (main.n_effective / dfm)
        sigma2_pilot = pilot.resid**2 * (pilot.n_effective / dfb)

    var_conv = float(np.sum((fac * main.proj[nu]) ** 2 * sigma2_main))
    # combined linear form of the bias-corrected estimate over the side points
    l_comb = np.zeros(len(u))
    # each fit's idx comes from flatnonzero, so its entries are distinct
    l_comb[main.idx] += fac * main.proj[nu]
    l_comb[pilot.idx] += -phi * pilot.proj[p + 1]
    sigma2_full = np.zeros(len(u))
    sigma2_full[pilot.idx] = sigma2_pilot
    var_rob = float(np.sum(l_comb**2 * sigma2_full))
    return _SideParts(est, bias, var_conv, var_rob, main.n_effective)


def _p_value(estimate, se) -> float:
    from scipy import special  # here, as in ols.fit_ols

    if se <= 0:
        return 0.0 if estimate != 0 else 1.0
    return float(2.0 * special.ndtr(-(abs(estimate) / se)))


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


@functools.cache
def _kernel_constants(kernel, p, nu):
    """Asymptotic bias and variance constants of the boundary estimator."""
    idx = np.arange(p + 1)
    S = np.array([[_moment(kernel, i + j) for j in idx] for i in idx])
    c = np.array([_moment(kernel, p + 1 + j) for j in idx])
    G = np.array([[_moment_sq(kernel, i + j) for j in idx] for i in idx])
    S_inv = np.linalg.inv(S)
    c1 = math.factorial(nu) * float((S_inv @ c)[nu]) / math.factorial(p + 1)
    c2 = math.factorial(nu) ** 2 * float((S_inv @ G @ S_inv)[nu, nu])
    if not c2 > 0:  # S is Hilbert-like: at high p, rounding swamps its inverse
        raise EstimationError(f"order-{p} {kernel} kernel constants are lost to rounding (variance constant {c2:.3g})")
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
    """Smallest bandwidth giving k points positive weight on this side (the
    curvature fit has already required more than k points)."""
    d = float(np.sort(np.abs(u))[k - 1])
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
    spread = float(np.std(tt))  # > 0: each curvature fit had p+3 distinct months
    exponent = 1.0 / (2 * p + 3)

    # read before the branch, so that a fit on any values checks them
    c1, c2 = _kernel_constants(kernel, p, nu)
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
        numerator = (1 + 2 * nu) * c2 * (sig2_l + sig2_r)
        denominator = 2 * (p + 1 - nu) * c1**2 * bias_gap**2 * density * n
        h = (numerator / denominator) ** exponent

    gaps = np.diff(np.unique(tt))
    pad = float(np.median(gaps))  # not empty: each side had p+3 distinct months
    needed = max(
        _min_admitting_h(ul, p + 2, kernel, pad),
        _min_admitting_h(ur, p + 2, kernel, pad),
    )
    return float(max(h, needed))


def _series_points(series: MonthlySeries, spec: RddSpec):
    start = max(spec.bandwidth_sample[0], series.start_month, key=month_index)
    end = min(spec.bandwidth_sample[1], series.end_month, key=month_index)
    if month_diff(end, start) < 0:
        raise EstimationError("bandwidth sample does not intersect the series")
    return series.window(start, end).to_arrays(spec.cutoff_month)


def rd_estimate_xy(t, y, spec: RddSpec) -> RddFit:
    """Discontinuity estimate on raw (months-from-cutoff, value) points.

    ``t`` is already measured from the cutoff, so the spec's
    ``cutoff_month`` and ``bandwidth_sample`` are not read here.
    """
    nu, p, kernel = spec.derivative_order, spec.resolved_order, spec.kernel
    if spec.bandwidth == MSE_OPTIMAL:
        h = select_bandwidth_xy(t, y, nu=nu, p=p, kernel=kernel)
    else:
        h = float(spec.bandwidth)
    b = spec.pilot_factor * h
    (ul, yl), (ur, yr) = _split_sides(t, y)
    left = _side_parts(ul, yl, nu, p, kernel, h, b, spec.variance, "left")
    right = _side_parts(ur, yr, nu, p, kernel, h, b, spec.variance, "right")
    tau = right.est - left.est
    tau_bc = tau - (right.bias - left.bias)
    se_conv = math.sqrt(left.var_conv + right.var_conv)
    se_rob = math.sqrt(left.var_rob + right.var_rob)
    return RddFit(
        estimand=spec.estimand,
        tau=tau,
        se_conventional=se_conv,
        tau_bc=tau_bc,
        se_robust=se_rob,
        ci_robust=(tau_bc - _Z95 * se_rob, tau_bc + _Z95 * se_rob),
        p_conventional=_p_value(tau, se_conv),
        p_robust=_p_value(tau_bc, se_rob),
        h_used=h,
        b_used=b,
        n_left=left.n_effective,
        n_right=right.n_effective,
        poly_order=p,
        kernel=kernel,
    )


def rd_estimate(series: MonthlySeries, spec: RddSpec) -> RddFit:
    """Discontinuity estimate for a monthly series under the given spec."""
    return rd_estimate_xy(*_series_points(series, spec), spec)


def require_monthly_support(spec: RddSpec) -> None:
    """Fit ``spec`` on every month of its ``bandwidth_sample`` with placeholder
    values and the linear-time variance, as no variance choice fails a fit.
    Each check a fit can fail reads only the months (the MSE-optimal width
    reads the values, but keeps p + 2 points a side), so the EstimationError
    this raises is the one a fit on those months would raise."""
    start, end = (month_diff(month, spec.cutoff_month) for month in spec.bandwidth_sample)
    t = np.arange(start, end + 1, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero values take the rule-of-thumb width
        rd_estimate_xy(t, np.zeros_like(t), replace(spec, variance=WLS_RESIDUALS))
