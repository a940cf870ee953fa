import math
from datetime import date

import numpy as np
import pytest

from breaklens.errors import EstimationError, SpecError
from breaklens.rdd_local_poly import (
    RddSpec,
    _fit_side,
    _kernel_weight,
    _split_sides,
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
        assert _kernel_weight(0.0, "triangular") == 1.0

    def test_triangular_boundary(self):
        assert _kernel_weight(1.0, "triangular") == 0.0
        assert _kernel_weight(-1.0, "triangular") == 0.0

    def test_triangular_midpoint(self):
        assert _kernel_weight(0.5, "triangular") == 0.5
        assert _kernel_weight(-0.5, "triangular") == 0.5

    def test_uniform(self):
        assert _kernel_weight(0.0, "uniform") == 1.0
        assert _kernel_weight(1.0, "uniform") == 1.0
        assert _kernel_weight(1.0001, "uniform") == 0.0

    def test_vanishes_outside_support(self):
        u = np.linspace(-3, 3, 61)
        for kernel in ("triangular", "uniform"):
            w = _kernel_weight(u, kernel)
            assert np.all(w[np.abs(u) > 1] == 0.0)
            assert np.all(w >= 0.0)

    def test_unknown_kernel(self):
        # rejected when the spec is built, so no weight is ever computed for it
        with pytest.raises(SpecError, match="kernel"):
            RddSpec(cutoff_month=CUTOFF, kernel="gaussian")


def side_points(series, side):
    """(months from the cutoff, value) of one side of the cutoff."""
    left, right = _split_sides(*series.to_arrays(CUTOFF))
    return left if side == "left" else right


class TestLocalPolyFit:
    """One-sided kernel-weighted fits: `_fit_side` directly, or through
    `rd_estimate_xy` at a manual bandwidth."""

    def test_exact_polynomial_interpolation(self):
        for p in (1, 2, 3):
            coefs = [0.7, -0.3, 0.05, -0.004][: p + 1]
            s = series_on_months(lambda t: sum(c * t**j for j, c in enumerate(coefs)))
            for side in ("left", "right"):
                fit = _fit_side(*side_points(s, side), p, 20.0, "triangular", side)
                np.testing.assert_allclose(fit.beta, coefs, atol=1e-9)

    def test_uniform_kernel_equals_windowed_ols(self):
        rng = np.random.default_rng(21)
        s = series_on_months(lambda t: 2.0 + 0.1 * t + 0.01 * t * t)
        noisy = MonthlySeries(
            s.start_month,
            tuple(v + rng.standard_normal() for v in s.values),
            s.meta,
        )
        h = 9.0
        fit = _fit_side(*side_points(noisy, "right"), 1, h, "uniform", "right")
        t, y = noisy.to_arrays(CUTOFF)
        keep = (t >= 0) & (t <= h)
        X = np.column_stack([np.ones(keep.sum()), t[keep]])
        beta = np.linalg.lstsq(X, y[keep], rcond=None)[0]
        np.testing.assert_allclose(fit.beta, beta, atol=1e-10)
        assert fit.n_effective == int(keep.sum())

    def test_hand_computed_three_point_wls(self):
        # {(-3,1),(-2,2),(-1,3)}, p=1, h=4, triangular weights (0.25, 0.5, 0.75):
        # normal equations give intercept 4, slope 1 (the points sit on y = 4 + u)
        values = [1.0, 2.0, 3.0]
        s = MonthlySeries(
            date(2017, 5, 1), tuple(values), SeriesMeta(transform="log")
        )
        fit = _fit_side(*side_points(s, "left"), 1, 4.0, "triangular", "left")
        assert tuple(fit.beta) == pytest.approx((4.0, 1.0), abs=1e-12)

    def test_right_side_includes_cutoff_month(self):
        u, y = side_points(step_series(), "right")
        assert u[0] == 0.0
        fit = _fit_side(u, y, 1, 6.0, "triangular", "right")
        # value at t=0 is 3.0 and the fitted intercept reproduces it exactly
        assert fit.beta[0] == pytest.approx(3.0, abs=1e-9)

    def test_too_few_points_raises(self):
        t, y = step_series().to_arrays(CUTOFF)
        spec = RddSpec(cutoff_month=CUTOFF, estimand="level", poly_order=3, bandwidth=2.0)
        with pytest.raises(EstimationError, match="positive weight"):
            rd_estimate_xy(t, y, spec)

    def test_widening_h_never_drops_points(self):
        t, y = step_series().to_arrays(CUTOFF)
        fits = [
            rd_estimate_xy(t, y, RddSpec(cutoff_month=CUTOFF, bandwidth=h))
            for h in (3.0, 6.0, 12.0, 24.0, 60.0)
        ]
        assert [f.n_left for f in fits] == sorted(f.n_left for f in fits)
        assert [f.n_right for f in fits] == sorted(f.n_right for f in fits)


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

    def test_bandwidth_sample_missing_the_series(self):
        spec = RddSpec(cutoff_month=CUTOFF, bandwidth_sample=(date(2021, 1, 1), date(2021, 6, 1)))
        with pytest.raises(EstimationError, match="^bandwidth sample does not intersect the series$"):
            rd_estimate(step_series(), spec)

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
        level = RddSpec(cutoff_month=CUTOFF, estimand="level", bandwidth=9.0)
        f, g = rd_estimate_xy(t, y, level), rd_estimate_xy(-t, y, level)
        assert g.tau == pytest.approx(-f.tau, abs=1e-9)
        assert g.se_conventional == pytest.approx(f.se_conventional, abs=1e-9)
        slope = RddSpec(cutoff_month=CUTOFF, estimand="slope", bandwidth=12.0)
        fs, gs = rd_estimate_xy(t, y, slope), rd_estimate_xy(-t, y, slope)
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
        fit = rd_estimate_xy(t, y, RddSpec(cutoff_month=CUTOFF, estimand="level", bandwidth=h))
        assert fit.n_left >= 3 and fit.n_right >= 3

    def test_no_observations_near_the_cutoff(self):
        t = np.concatenate([np.arange(-100.0, -89.0), np.arange(90.0, 101.0)])
        y = np.where(t < 0, 0.05 * t**2, -0.05 * t**2)
        with pytest.raises(EstimationError, match="^no observations near the cutoff$"):
            select_bandwidth_xy(t, y, nu=0, p=1)

    def test_zero_curvature_falls_back_with_warning(self):
        t = np.arange(-54.0, 54.0)
        y = 2.0 + 0.1 * t
        with pytest.warns(UserWarning, match="rule-of-thumb"):
            h = select_bandwidth_xy(t, y, nu=0, p=1)
        assert h == pytest.approx(np.std(t) * len(t) ** (-0.2), rel=1e-9)

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


class TestEarlierCheckDecides:
    """Inputs that would need a further check in the fit are stopped, with
    their own message, by a check that runs before it."""

    def test_one_point_side_stopped_by_its_pilot_fit_before_neighbor_variance(self):
        # order 0: the main fit takes the lone t = 0 point, its pilot needs 2
        t = np.arange(-20.0, 1.0)
        spec = RddSpec(cutoff_month=CUTOFF, poly_order=0, bandwidth=5.0, variance="nearest_neighbor")
        message = r"right pilot \(b=7\.5\): only 1 observations carry positive weight inside h=7\.5, need >= 2"
        with pytest.raises(EstimationError, match=f"^{message}$"):
            rd_estimate_xy(t, np.sin(t), spec)

    def test_side_below_p_plus_2_points_stopped_by_curvature_count(self):
        t = np.concatenate([np.arange(-30.0, 0.0), [0.0, 1.0]])
        message = "right side has 2 observations, need >= 5 for the order-3 curvature fit"
        with pytest.raises(EstimationError, match=f"^{message}$"):
            select_bandwidth_xy(t, np.cos(t), nu=0, p=1)

    def test_single_month_stopped_by_curvature_rank_before_spread(self):
        t = np.full(10, -3.0)
        with pytest.raises(EstimationError, match="^left side curvature fit is rank deficient$"):
            select_bandwidth_xy(t, np.arange(10.0), nu=0, p=1)

    def test_near_singular_local_design(self):
        t = np.arange(-67.0, 41.0)
        spec = RddSpec(cutoff_month=CUTOFF, poly_order=10, bandwidth=20)
        with pytest.raises(EstimationError, match=r"^left side: singular local design \(p=10, h=20"):
            rd_estimate_xy(t, np.sin(t), spec)


class TestSpecValidation:
    def test_order_below_derivative_rejected(self):
        with pytest.raises(ValueError):
            RddSpec(cutoff_month=CUTOFF, estimand="slope", poly_order=0)

    def test_manual_bandwidth_positive(self):
        with pytest.raises(ValueError):
            RddSpec(cutoff_month=CUTOFF, bandwidth=-2.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("estimand", "jump"),
            ("variance", "nearest-neighbour"),
            ("bandwidth", "optimal"),
            ("pilot_factor", 0.5),
            ("bandwidth", math.inf),
            ("bandwidth", math.nan),
            ("pilot_factor", math.inf),
            ("pilot_factor", math.nan),
            ("poly_order", 1.5),
            ("poly_order", True),
            ("bandwidth", True),
            ("pilot_factor", True),
            ("pilot_factor", "2"),
            ("bandwidth_sample", (date(2020, 1, 1), date(2019, 12, 1))),
        ],
    )
    def test_misspelled_or_out_of_range_field_rejected(self, field, value):
        with pytest.raises(SpecError) as err:
            RddSpec(cutoff_month=CUTOFF, **{field: value})
        assert err.value.field == field

    def test_numpy_numbers_accepted(self):
        spec = RddSpec(
            cutoff_month=CUTOFF, poly_order=np.int64(2), bandwidth=np.int64(12), pilot_factor=np.float64(2.0)
        )
        t, y = step_series().to_arrays(CUTOFF)
        fit = rd_estimate_xy(t, y, spec)
        assert fit.poly_order == 2 and fit.h_used == 12.0 and fit.b_used == 24.0

    def test_fit_takes_no_tuning_keywords(self):
        # a misspelled variance or bandwidth keyword used to run silently
        # with the default; every tuning value now comes from a checked spec
        t, y = step_series().to_arrays(CUTOFF)
        for tuning in ({"variance": "nearest-neighbour"}, {"bandwidth": "optimal"}):
            with pytest.raises(TypeError):
                rd_estimate_xy(t, y, estimand="level", **tuning)

    def test_default_orders(self):
        assert RddSpec(cutoff_month=CUTOFF, estimand="level").resolved_order == 1
        assert RddSpec(cutoff_month=CUTOFF, estimand="slope").resolved_order == 2
