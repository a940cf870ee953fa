import math
from datetime import date

import numpy as np
import pytest

from breaklens.errors import EstimationError
from breaklens.rdd_local_poly import (
    RddSpec,
    kernel_weight,
    local_poly_fit,
    rd_estimate,
    rd_estimate_xy,
    select_bandwidth_xy,
)
from breaklens.series import MonthlySeries, SeriesMeta
from util import CUTOFF

SAMPLE_START = date(2012, 1, 1)


def series_on_months(fn, start=SAMPLE_START, n=108, cutoff=CUTOFF):
    from breaklens.months import month_diff

    offset = month_diff(start, cutoff)
    values = tuple(float(fn(offset + k)) for k in range(n))
    return MonthlySeries(start, values, SeriesMeta(transform="log"))


def step_series(jump=2.0, slope=0.3):
    return series_on_months(lambda t: 1.0 + slope * t + (jump if t >= 0 else 0.0))


class TestKernelWeight:
    def test_triangular_peak(self):
        assert kernel_weight(0.0) == 1.0

    def test_triangular_boundary(self):
        assert kernel_weight(1.0) == 0.0
        assert kernel_weight(-1.0) == 0.0

    def test_triangular_midpoint(self):
        assert kernel_weight(0.5) == 0.5
        assert kernel_weight(-0.5) == 0.5

    def test_uniform(self):
        assert kernel_weight(0.0, "uniform") == 1.0
        assert kernel_weight(1.0, "uniform") == 1.0
        assert kernel_weight(1.0001, "uniform") == 0.0

    def test_vanishes_outside_support(self):
        u = np.linspace(-3, 3, 61)
        w = kernel_weight(u)
        assert np.all(w[np.abs(u) > 1] == 0.0)
        assert np.all(w >= 0.0)

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            kernel_weight(0.0, "gaussian")


class TestLocalPolyFit:
    def test_exact_polynomial_interpolation(self):
        for p in (1, 2, 3):
            coefs = [0.7, -0.3, 0.05, -0.004][: p + 1]
            s = series_on_months(lambda t: sum(c * t**j for j, c in enumerate(coefs)))
            fit = local_poly_fit(s, CUTOFF, "left", p, h=20.0)
            np.testing.assert_allclose(fit.coef, coefs, atol=1e-9)
            fit = local_poly_fit(s, CUTOFF, "right", p, h=20.0)
            np.testing.assert_allclose(fit.coef, coefs, atol=1e-9)

    def test_uniform_kernel_equals_windowed_ols(self):
        rng = np.random.default_rng(21)
        s = series_on_months(lambda t: 2.0 + 0.1 * t + 0.01 * t * t)
        noisy = MonthlySeries(
            s.start_month,
            tuple(v + rng.standard_normal() for v in s.values),
            s.meta,
        )
        h = 9.0
        fit = local_poly_fit(noisy, CUTOFF, "right", 1, h, kernel="uniform")
        t, y = noisy.to_arrays(CUTOFF)
        keep = (t >= 0) & (t <= h)
        X = np.column_stack([np.ones(keep.sum()), t[keep]])
        beta = np.linalg.lstsq(X, y[keep], rcond=None)[0]
        np.testing.assert_allclose(fit.coef, beta, atol=1e-10)
        assert fit.n_effective == int(keep.sum())

    def test_hand_computed_three_point_wls(self):
        # {(-3,1),(-2,2),(-1,3)}, p=1, h=4, triangular weights (0.25, 0.5, 0.75):
        # normal equations give intercept 4, slope 1 (the points sit on y = 4 + u)
        values = [1.0, 2.0, 3.0]
        s = MonthlySeries(
            date(2017, 5, 1), tuple(values), SeriesMeta(transform="log")
        )
        fit = local_poly_fit(s, date(2017, 8, 1), "left", 1, h=4.0)
        assert fit.coef == pytest.approx((4.0, 1.0), abs=1e-12)

    def test_right_side_includes_cutoff_month(self):
        s = step_series()
        fit = local_poly_fit(s, CUTOFF, "right", 1, h=6.0)
        # value at t=0 is 3.0 and the fitted intercept reproduces it exactly
        assert fit.derivative(0) == pytest.approx(3.0, abs=1e-9)

    def test_too_few_points_raises(self):
        s = step_series()
        with pytest.raises(EstimationError, match="positive weight"):
            local_poly_fit(s, CUTOFF, "left", 3, h=2.0)

    def test_widening_h_never_drops_points(self):
        s = step_series()
        counts = [
            local_poly_fit(s, CUTOFF, "left", 1, h).n_effective
            for h in (3.0, 6.0, 12.0, 24.0, 60.0)
        ]
        assert counts == sorted(counts)


class TestRdEstimate:
    def test_noiseless_step_every_bandwidth(self):
        s = step_series(jump=2.0, slope=0.3)
        for h in (3.0, 5.0, 8.0, 13.0, 21.0):
            fit = rd_estimate(
                s, RddSpec(cutoff_month=CUTOFF, estimand="level", bandwidth=h)
            )
            assert fit.tau == pytest.approx(2.0, abs=1e-9)
            assert fit.tau_bc == pytest.approx(2.0, abs=1e-8)
        slope_fit = rd_estimate(
            s, RddSpec(cutoff_month=CUTOFF, estimand="slope", bandwidth=8.0)
        )
        assert slope_fit.tau == pytest.approx(0.0, abs=1e-9)

    def test_globally_linear_series_no_break(self):
        s = series_on_months(lambda t: 4.0 + 0.25 * t)
        with pytest.warns(UserWarning, match="curvature"):
            level = rd_estimate(s, RddSpec(cutoff_month=CUTOFF, estimand="level"))
        assert level.tau == pytest.approx(0.0, abs=1e-9)
        with pytest.warns(UserWarning, match="curvature"):
            slope = rd_estimate(s, RddSpec(cutoff_month=CUTOFF, estimand="slope"))
        assert slope.tau == pytest.approx(0.0, abs=1e-9)

    def test_uniform_manual_h_equals_two_window_ols(self):
        rng = np.random.default_rng(33)
        base = series_on_months(lambda t: 2.0 + 0.05 * t + 0.002 * t * t)
        s = MonthlySeries(
            base.start_month,
            tuple(v + 0.3 * rng.standard_normal() for v in base.values),
            base.meta,
        )
        h = 10.0
        fit = rd_estimate(
            s,
            RddSpec(cutoff_month=CUTOFF, estimand="level", kernel="uniform", bandwidth=h),
        )
        t, y = s.to_arrays(CUTOFF)

        def window_ols(side_mask):
            X = np.column_stack([np.ones(side_mask.sum()), t[side_mask]])
            return np.linalg.lstsq(X, y[side_mask], rcond=None)[0][0]

        right = window_ols((t >= 0) & (t <= h))
        left = window_ols((t < 0) & (t >= -h))
        assert fit.tau == pytest.approx(right - left, abs=1e-10)

    def test_effective_counts_reported(self):
        s = step_series()
        fit = rd_estimate(
            s, RddSpec(cutoff_month=CUTOFF, estimand="level", bandwidth=6.0)
        )
        # triangular support is strict: |u| < 6 admits months -5..-1 on the
        # left and 0..5 on the right (the cutoff month sits in the right side)
        assert fit.n_left == 5
        assert fit.n_right == 6

    def test_min_points_enforced(self):
        values = tuple(1.0 + 0.1 * k for k in range(8))
        s = MonthlySeries(date(2017, 6, 1), values, SeriesMeta(transform="log"))
        spec = RddSpec(
            cutoff_month=date(2017, 8, 1),
            estimand="slope",
            bandwidth=2.0,
            bandwidth_sample=(date(2017, 6, 1), date(2018, 1, 1)),
        )
        with pytest.raises(EstimationError):
            rd_estimate(s, spec)

    def test_pilot_must_cover_main_bandwidth(self):
        s = step_series()
        spec = RddSpec(
            cutoff_month=CUTOFF, estimand="level", bandwidth=8.0, pilot_bandwidth=4.0
        )
        with pytest.raises(EstimationError, match="pilot"):
            rd_estimate(s, spec)


class TestEquivariance:
    def _noisy_series(self, seed=5, curve=True):
        rng = np.random.default_rng(seed)
        shape = (lambda t: 1.5 + 0.04 * t - 0.003 * t * t + (0.8 if t >= 0 else 0.0))
        base = series_on_months(shape)
        return MonthlySeries(
            base.start_month,
            tuple(v + 0.1 * rng.standard_normal() for v in base.values),
            base.meta,
        )

    def test_scaling_outcome_scales_level_tau_and_se(self):
        s = self._noisy_series()
        spec = RddSpec(cutoff_month=CUTOFF, estimand="level", bandwidth=10.0)
        f1 = rd_estimate(s, spec)
        scaled = MonthlySeries(s.start_month, tuple(3.0 * v for v in s.values), s.meta)
        f2 = rd_estimate(scaled, spec)
        assert f2.tau == pytest.approx(3.0 * f1.tau, rel=1e-9)
        assert f2.se_conventional == pytest.approx(3.0 * f1.se_conventional, rel=1e-9)
        assert f2.se_robust == pytest.approx(3.0 * f1.se_robust, rel=1e-9)

    def test_adding_constant_leaves_level_tau(self):
        s = self._noisy_series()
        spec = RddSpec(cutoff_month=CUTOFF, estimand="level", bandwidth=10.0)
        f1 = rd_estimate(s, spec)
        shifted = MonthlySeries(s.start_month, tuple(v + 50.0 for v in s.values), s.meta)
        f2 = rd_estimate(shifted, spec)
        assert f2.tau == pytest.approx(f1.tau, abs=1e-8)

    def test_slope_tau_invariant_to_global_linear_addition(self):
        s = self._noisy_series()
        spec = RddSpec(cutoff_month=CUTOFF, estimand="slope", bandwidth=12.0)
        f1 = rd_estimate(s, spec)
        t, _ = s.to_arrays(CUTOFF)
        added = MonthlySeries(
            s.start_month,
            tuple(v + 7.0 + 0.5 * tt for v, tt in zip(s.values, t)),
            s.meta,
        )
        f2 = rd_estimate(added, spec)
        assert f2.tau == pytest.approx(f1.tau, abs=1e-8)

    def test_level_tau_with_local_constant_sees_slope_addition(self):
        # with p >= 1 the design reproduces linear trends exactly, so the
        # level jump only reacts to an added slope under a local-constant fit
        s = self._noisy_series()
        t, _ = s.to_arrays(CUTOFF)
        added = MonthlySeries(
            s.start_month,
            tuple(v + 0.5 * tt for v, tt in zip(s.values, t)),
            s.meta,
        )
        p0 = RddSpec(cutoff_month=CUTOFF, estimand="level", poly_order=0, bandwidth=10.0)
        f1, f2 = rd_estimate(s, p0), rd_estimate(added, p0)
        assert abs(f2.tau - f1.tau) > 0.1
        p1 = RddSpec(cutoff_month=CUTOFF, estimand="level", poly_order=1, bandwidth=10.0)
        g1, g2 = rd_estimate(s, p1), rd_estimate(added, p1)
        assert g2.tau == pytest.approx(g1.tau, abs=1e-8)

    def test_mirror_symmetry(self):
        # on a grid symmetric about the cutoff (no point at t = 0), mirroring
        # swaps the sides exactly: the level jump changes sign while per-side
        # slopes negate and swap, leaving the slope discontinuity unchanged
        rng = np.random.default_rng(6)
        t = np.arange(-40.0, 41.0) + 0.5
        y = np.where(t < 0, 1.0 + 0.05 * t + 0.004 * t**2, 2.5 - 0.03 * t - 0.002 * t**2)
        y = y + 0.05 * rng.standard_normal(len(y))
        f = rd_estimate_xy(t, y, estimand="level", bandwidth=9.0)
        g = rd_estimate_xy(-t, y, estimand="level", bandwidth=9.0)
        assert g.tau == pytest.approx(-f.tau, abs=1e-9)
        assert g.se_conventional == pytest.approx(f.se_conventional, abs=1e-9)
        fs = rd_estimate_xy(t, y, estimand="slope", bandwidth=12.0)
        gs = rd_estimate_xy(-t, y, estimand="slope", bandwidth=12.0)
        assert gs.tau == pytest.approx(fs.tau, abs=1e-9)


class TestBandwidthSelector:
    def test_clipped_up_to_admit_minimum_points(self):
        # strong curvature and tiny noise push the closed form below the
        # spacing of the grid; the selector must still admit p+2 points
        rng = np.random.default_rng(12)
        t = np.arange(-54.0, 54.0)
        y = np.where(t < 0, 0.05 * t**2, 1.0 - 0.05 * t**2) + 1e-6 * rng.standard_normal(len(t))
        h = select_bandwidth_xy(t, y, nu=0, p=1)
        assert h >= 3.0
        fit = rd_estimate_xy(t, y, estimand="level", bandwidth=h)
        assert fit.n_left >= 3 and fit.n_right >= 3

    def test_zero_curvature_falls_back_with_warning(self):
        t = np.arange(-54.0, 54.0)
        y = 2.0 + 0.1 * t
        with pytest.warns(UserWarning, match="rule-of-thumb"):
            h = select_bandwidth_xy(t, y, nu=0, p=1)
        assert h == pytest.approx(np.std(t) * len(t) ** (-0.2), rel=1e-9) or h >= 3.0

    def test_shrink_rate_under_infill(self):
        # fixed support, 16x the points: the closed form scales the width
        # by 16^(-1/(2p+3))
        def dgp_level(rng, n):
            t = rng.uniform(-1, 1, n)
            m = np.where(t < 0, t**2 - 0.5 * t**3, 1.0 + 0.5 * t - t**2 + 0.8 * t**3)
            return t, m + 0.25 * rng.standard_normal(n)

        def dgp_slope(rng, n):
            t = rng.uniform(-1, 1, n)
            m = np.where(t < 0, t**2 + 5.0 * t**3, 1.0 + 0.5 * t - t**2 - 5.0 * t**3)
            return t, m + 0.1 * rng.standard_normal(n)

        rng = np.random.default_rng(11)
        for gen, p, nu in ((dgp_level, 1, 0), (dgp_slope, 2, 1)):
            small, big = [], []
            for _ in range(25):
                t, y = gen(rng, 500)
                small.append(select_bandwidth_xy(t, y, nu=nu, p=p))
                t, y = gen(rng, 8000)
                big.append(select_bandwidth_xy(t, y, nu=nu, p=p))
            ratio = math.exp(np.mean(np.log(big)) - np.mean(np.log(small)))
            expected = 16.0 ** (-1.0 / (2 * p + 3))
            assert abs(ratio - expected) <= 0.2 * expected

    def test_series_wrapper_matches_xy(self):
        s = series_on_months(lambda t: 3.0 + 0.02 * t - 0.001 * t * t)
        rng = np.random.default_rng(8)
        s = MonthlySeries(
            s.start_month,
            tuple(v + 0.05 * rng.standard_normal() for v in s.values),
            s.meta,
        )
        # the series spans exactly the default bandwidth sample
        h_series = rd_estimate(s, RddSpec(cutoff_month=CUTOFF, estimand="level")).h_used
        t, y = s.to_arrays(CUTOFF)
        h_xy = select_bandwidth_xy(t, y, nu=0, p=1)
        assert h_series == pytest.approx(h_xy, rel=1e-12)


def side_bias(u, y, nu, p, h, b):
    """Leading smoothing bias of one side, from scratch: the order-p fit's
    response to u^(p+1) at bandwidth h times the u^(p+1) coefficient of an
    order-(p+1) fit at pilot bandwidth b (triangular kernel)."""

    def wls_projection(order, bw):
        w = np.maximum(0.0, 1.0 - np.abs(u) / bw)
        keep = w > 0
        Z = np.vander(u[keep], order + 1, increasing=True)
        ZtW = Z.T * w[keep]
        return np.linalg.solve(ZtW @ Z, ZtW), u[keep], y[keep]

    main, u_main, _ = wls_projection(p, h)
    pilot, _, y_pilot = wls_projection(p + 1, b)
    phi = math.factorial(nu) * main[nu] @ u_main ** (p + 1)
    return phi * (pilot[p + 1] @ y_pilot)


class TestRobustCi:
    def test_noiseless_polynomial_degenerates_to_point(self):
        s = series_on_months(lambda t: 1.0 + 0.2 * t + (1.5 if t >= 0 else 0.0))
        spec = RddSpec(cutoff_month=CUTOFF, estimand="level", bandwidth=10.0)
        fit = rd_estimate(s, spec)
        assert fit.tau_bc == pytest.approx(fit.tau, abs=1e-9)
        assert fit.se_robust == pytest.approx(0.0, abs=1e-9)
        lo, hi = fit.ci_robust
        assert lo == pytest.approx(hi, abs=1e-8)
        assert lo <= fit.tau_bc <= hi

    def test_bias_identity(self):
        rng = np.random.default_rng(14)
        base = series_on_months(lambda t: 2.0 + 0.05 * t + 0.004 * t * t)
        s = MonthlySeries(
            base.start_month,
            tuple(v + 0.2 * rng.standard_normal() for v in base.values),
            base.meta,
        )
        spec = RddSpec(cutoff_month=CUTOFF, estimand="level", bandwidth=9.0)
        fit = rd_estimate(s, spec)
        t, y = s.to_arrays(CUTOFF)
        left, right = t < 0, t >= 0
        bias = side_bias(t[right], y[right], 0, 1, fit.h_used, fit.b_used) - side_bias(
            t[left], y[left], 0, 1, fit.h_used, fit.b_used
        )
        assert fit.tau - fit.tau_bc == pytest.approx(bias, abs=1e-12)

    def test_ci_contains_bias_corrected_point(self):
        rng = np.random.default_rng(15)
        base = series_on_months(lambda t: 2.0 - 0.03 * t + 0.002 * t * t)
        s = MonthlySeries(
            base.start_month,
            tuple(v + 0.3 * rng.standard_normal() for v in base.values),
            base.meta,
        )
        spec = RddSpec(cutoff_month=CUTOFF, estimand="level")
        fit = rd_estimate(s, spec)
        lo, hi = fit.ci_robust
        assert lo <= fit.tau_bc <= hi

    def test_robust_interval_wider_than_conventional(self):
        rng = np.random.default_rng(16)
        base = series_on_months(lambda t: 2.0 + 0.01 * t + 0.003 * t * t)
        s = MonthlySeries(
            base.start_month,
            tuple(v + 0.3 * rng.standard_normal() for v in base.values),
            base.meta,
        )
        fit = rd_estimate(s, RddSpec(cutoff_month=CUTOFF, estimand="level"))
        assert fit.se_robust >= fit.se_conventional

    def test_nearest_neighbor_variance_flag(self):
        rng = np.random.default_rng(17)
        base = series_on_months(lambda t: 2.0 + 0.01 * t + 0.002 * t * t)
        s = MonthlySeries(
            base.start_month,
            tuple(v + 0.3 * rng.standard_normal() for v in base.values),
            base.meta,
        )
        wls = rd_estimate(s, RddSpec(cutoff_month=CUTOFF, estimand="level", bandwidth=10.0))
        nn = rd_estimate(
            s,
            RddSpec(
                cutoff_month=CUTOFF,
                estimand="level",
                bandwidth=10.0,
                variance="nearest_neighbor",
            ),
        )
        assert nn.tau == pytest.approx(wls.tau, abs=1e-12)
        assert nn.se_robust != wls.se_robust


class TestSpecValidation:
    def test_order_below_derivative_rejected(self):
        with pytest.raises(ValueError):
            RddSpec(cutoff_month=CUTOFF, estimand="slope", poly_order=0)

    def test_manual_bandwidth_positive(self):
        with pytest.raises(ValueError):
            RddSpec(cutoff_month=CUTOFF, bandwidth=-2.0)

    def test_default_orders(self):
        assert RddSpec(cutoff_month=CUTOFF, estimand="level").resolved_order == 1
        assert RddSpec(cutoff_month=CUTOFF, estimand="slope").resolved_order == 2
