import math
from datetime import date

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from breaklens.errors import EstimationError, SpecError
from breaklens.series import MonthlySeries
from breaklens.trend_break import (
    TrendBreakSpec,
    annualize_log_slope,
    counterfactual_projection,
    feasibility_check,
    fit_trend_break,
    log_transform,
    segment_trend,
)
from util import CUTOFF, WINDOW_START, piecewise, series_from_fn

SPEC = TrendBreakSpec(cutoff_month=CUTOFF)


def oracle_ols(X, y):
    """Normal-equations solver with explicit inversion, kept independent of
    the implementation's lstsq path."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    xtx_inv = scipy.linalg.inv(X.T @ X)
    coef = xtx_inv @ X.T @ y
    resid = y - X @ coef
    n, k = X.shape
    sigma2 = resid @ resid / (n - k)
    se = np.sqrt(np.diag(sigma2 * xtx_inv))
    return coef, se


def random_series(rng, missing=0):
    a0, a1 = rng.uniform(50, 150), rng.uniform(-30, 30)
    a2, a3 = rng.uniform(-3, 0), rng.uniform(0, 4)
    noise = rng.standard_normal(57) * rng.uniform(0.5, 10)
    values = []
    for k, t in enumerate(range(-28, 29)):
        d = 1 if t >= 0 else 0
        values.append(max(0.0, a0 + a1 * d + a2 * t + a3 * t * d + noise[k]))
    values = list(values)
    for i in rng.choice(57, size=missing, replace=False):
        values[i] = None
    return MonthlySeries(WINDOW_START, tuple(values))


def design(ts):
    t = np.asarray(ts, float)
    d = (t >= 0).astype(float)
    return np.column_stack([np.ones_like(t), d, t, t * d])


class TestFit:
    def test_exact_piecewise_recovery(self):
        s = series_from_fn(piecewise(10, -0.5, 12, 0.2))
        fit = fit_trend_break(s, SPEC)
        assert fit.coefficients == pytest.approx((10.0, 2.0, -0.5, 0.7), abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert max(abs(r) for r in fit.residuals) < 1e-9

    def test_constant_series_has_no_break(self):
        s = series_from_fn(lambda t: 42.0)
        fit = fit_trend_break(s, SPEC)
        assert fit.alpha1 == pytest.approx(0.0, abs=1e-9)
        assert fit.alpha2 == pytest.approx(0.0, abs=1e-9)
        assert fit.alpha3 == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == 1.0

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            fit = fit_trend_break(random_series(rng), SPEC)
            assert sum(fit.residuals) == pytest.approx(0.0, abs=1e-9)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = random_series(rng)
            fit = fit_trend_break(s, SPEC)
            ts = fit.t_values
            ys = s.values[~np.isnan(s.values)]
            coef, se = oracle_ols(design(ts), ys)
            np.testing.assert_allclose(fit.coefficients, coef, atol=1e-10)
            np.testing.assert_allclose(fit.se, se, atol=1e-10)

    def test_missing_rows_dropped_keep_spacing(self):
        s = random_series(np.random.default_rng(2), missing=6)
        fit = fit_trend_break(s, SPEC)
        assert fit.n == 51
        ts, ys = [], []
        for k, v in enumerate(s.values):
            if not math.isnan(v):
                ts.append(k - 28)
                ys.append(v)
        coef, _ = oracle_ols(design(ts), ys)
        np.testing.assert_allclose(fit.coefficients, coef, atol=1e-10)

    def test_n_pre_n_post_counts(self):
        fit = fit_trend_break(series_from_fn(piecewise(10, -0.5, 12, 0.2)), SPEC)
        assert (fit.n_pre, fit.n_post) == (28, 29)

    def test_cutoff_moved_to_pre_segment(self):
        s = series_from_fn(piecewise(10, -0.5, 12, 0.2))
        spec = TrendBreakSpec(cutoff_month=CUTOFF, treat_cutoff_as_post=False)
        fit = fit_trend_break(s, spec)
        assert fit.n_post == 28
        # t = 0 now carries the post-formula value 12 but sits in the pre
        # segment, so the pre line no longer passes exactly through (0, 10)
        assert fit.alpha0 != pytest.approx(10.0, abs=1e-6)

    def test_series_must_cover_window(self):
        short = MonthlySeries(date(2016, 1, 1), tuple(10.0 for _ in range(30)))
        with pytest.raises(EstimationError, match="window"):
            fit_trend_break(short, SPEC)

    def test_all_post_window_is_rank_deficient(self):
        s = series_from_fn(lambda t: 10.0, start=CUTOFF, n=57)
        with pytest.raises(EstimationError):
            fit_trend_break(s, SPEC)

    def test_insufficient_observations(self):
        values = [None] * 57
        values[0] = 10.0
        values[1] = 11.0
        values[30] = 12.0
        values[31] = 13.0
        s = MonthlySeries(WINDOW_START, tuple(values))
        with pytest.raises(EstimationError):
            fit_trend_break(s, SPEC)

    def test_one_post_month_names_the_segment_counts(self):
        values = [float(k) for k in range(57)]
        values[29:] = [None] * 28  # t = 0 is the only present post-cutoff month
        s = MonthlySeries(WINDOW_START, tuple(values))
        with pytest.raises(EstimationError, match="got 28 pre and 1 post$"):
            fit_trend_break(s, SPEC)

    def test_hac_default_lags_follow_the_bartlett_rule(self):
        s = random_series(np.random.default_rng(4))
        lags = math.floor(4 * (57 / 100) ** (2 / 9))
        assert lags == 3
        default = fit_trend_break(s, TrendBreakSpec(cutoff_month=CUTOFF, se_type="newey_west"))
        explicit = fit_trend_break(
            s, TrendBreakSpec(cutoff_month=CUTOFF, se_type="newey_west", hac_lags=lags)
        )
        other = fit_trend_break(
            s, TrendBreakSpec(cutoff_month=CUTOFF, se_type="newey_west", hac_lags=lags + 1)
        )
        assert default.se == explicit.se
        assert default.se != other.se

    def test_hac_flag_runs_and_changes_only_inference(self):
        rng = np.random.default_rng(3)
        s = random_series(rng)
        classic = fit_trend_break(s, SPEC)
        hac = fit_trend_break(
            s, TrendBreakSpec(cutoff_month=CUTOFF, se_type="newey_west", hac_lags=3)
        )
        np.testing.assert_allclose(hac.coefficients, classic.coefficients, atol=1e-12)
        assert hac.se != classic.se


class TestInvariants:
    def test_saturated_model_equals_segment_fits(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = random_series(rng)
            fit = fit_trend_break(s, SPEC)
            pre = segment_trend(s, SPEC, "pre")
            post = segment_trend(s, SPEC, "post")
            assert fit.alpha0 == pytest.approx(pre.intercept, abs=1e-9)
            assert fit.alpha2 == pytest.approx(pre.slope, abs=1e-9)
            assert fit.alpha0 + fit.alpha1 == pytest.approx(post.intercept, abs=1e-9)
            assert fit.alpha2 + fit.alpha3 == pytest.approx(post.slope, abs=1e-9)

    def test_shift_moves_only_intercept(self):
        rng = np.random.default_rng(5)
        s = random_series(rng)
        shifted = MonthlySeries(
            s.start_month, tuple(v + 100.0 for v in s.values), s.meta
        )
        f1, f2 = fit_trend_break(s, SPEC), fit_trend_break(shifted, SPEC)
        assert f2.alpha0 == pytest.approx(f1.alpha0 + 100.0, abs=1e-8)
        assert f2.alpha1 == pytest.approx(f1.alpha1, abs=1e-8)
        assert f2.alpha2 == pytest.approx(f1.alpha2, abs=1e-8)
        assert f2.alpha3 == pytest.approx(f1.alpha3, abs=1e-8)

    def test_scaling_scales_coefficients_not_t_stats(self):
        rng = np.random.default_rng(6)
        s = random_series(rng)
        scaled = MonthlySeries(s.start_month, tuple(v * 3.0 for v in s.values), s.meta)
        f1, f2 = fit_trend_break(s, SPEC), fit_trend_break(scaled, SPEC)
        np.testing.assert_allclose(
            f2.coefficients, tuple(3.0 * c for c in f1.coefficients), rtol=1e-10
        )
        np.testing.assert_allclose(f2.se, tuple(3.0 * e for e in f1.se), rtol=1e-10)
        np.testing.assert_allclose(f2.t_stats, f1.t_stats, rtol=1e-9)

    def test_transform_then_fit_commutes(self):
        rng = np.random.default_rng(7)
        s = random_series(rng)
        log_spec = TrendBreakSpec(cutoff_month=CUTOFF, transform="log")
        via_spec = fit_trend_break(s, log_spec)
        via_transform = fit_trend_break(log_transform(s), log_spec)
        np.testing.assert_allclose(via_spec.coefficients, via_transform.coefficients, atol=1e-12)


class TestLogTransform:
    def test_analytic_points(self):
        s = MonthlySeries(date(2017, 1, 1), (1.0, math.e**2, 4.0))
        out = log_transform(s)
        assert out.values[0] == pytest.approx(0.0)
        assert out.values[1] == pytest.approx(2.0)
        assert out.meta.transform == "log"

    def test_zero_becomes_missing_with_count(self):
        s = MonthlySeries(date(2017, 1, 1), (1.0, 0.0, 4.0))
        with pytest.warns(UserWarning, match="dropped 1"):
            out = log_transform(s)
        assert math.isnan(out.values[1])
        assert out.meta.n_nonpositive == 1

    def test_double_log_rejected(self):
        s = MonthlySeries(date(2017, 1, 1), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            log_transform(log_transform(s))


class TestCounterfactual:
    def test_affine_arithmetic(self):
        fit = fit_trend_break(series_from_fn(piecewise(10, -0.5, 12, 0.2)), SPEC)
        path = counterfactual_projection(fit, 10)
        assert path.values[10] == pytest.approx(5.0, abs=1e-9)
        assert fit.gap(0) == fit.alpha1
        assert fit.gap(7) == pytest.approx(fit.alpha1 + 7 * fit.alpha3)

    def test_zero_slope_is_feasible_constant(self):
        fit = fit_trend_break(series_from_fn(piecewise(10, 0.0, 12, 0.0)), SPEC)
        path = counterfactual_projection(fit, 28)
        assert all(v == pytest.approx(10.0, abs=1e-9) for v in path.values)
        assert feasibility_check(path).feasible

    def test_linear_root_detected(self):
        fit = fit_trend_break(series_from_fn(piecewise(10, -0.5, 12, 0.2)), SPEC)
        path = counterfactual_projection(fit, 28)
        check = feasibility_check(path)
        assert not check.feasible
        assert check.infeasible_at_t == 21

    def test_gap_identity_against_fitted_lines(self):
        rng = np.random.default_rng(8)
        fit = fit_trend_break(random_series(rng), SPEC)
        path = counterfactual_projection(fit, 28)
        for t in (0, 5, 28):
            fitted_post = (fit.alpha0 + fit.alpha1) + (fit.alpha2 + fit.alpha3) * t
            cf = fit.alpha0 + fit.alpha2 * t
            assert cf == path.values[t]
            assert fit.gap(t) == pytest.approx(fitted_post - cf, abs=1e-9)

    def test_log_path_rejects_feasibility(self):
        s = series_from_fn(lambda t: 30.0 * math.exp(-0.02 * t))
        fit = fit_trend_break(s, TrendBreakSpec(cutoff_month=CUTOFF, transform="log"))
        path = counterfactual_projection(fit, 28)
        with pytest.raises(ValueError, match="levels only"):
            feasibility_check(path)


class TestSegmentTrend:
    def test_exact_line(self):
        s = series_from_fn(piecewise(10, -0.5, 12, 0.2))
        pre = segment_trend(s, SPEC, "pre")
        assert pre.slope == pytest.approx(-0.5, abs=1e-10)
        post = segment_trend(s, SPEC, "post")
        assert post.slope == pytest.approx(0.2, abs=1e-10)

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(9)
        s = random_series(rng)
        pre = segment_trend(s, SPEC, "pre")
        ts = np.arange(-28.0, 0.0)
        ys = np.asarray(s.values[:28], float)
        X = np.column_stack([np.ones_like(ts), ts])
        coef, se = oracle_ols(X, ys)
        assert pre.slope == pytest.approx(coef[1], abs=1e-10)
        assert pre.se == pytest.approx(se[1], abs=1e-10)

    def test_insufficient_side(self):
        values = list(series_from_fn(piecewise(10, -0.5, 12, 0.2)).values)
        for i in range(26):
            values[i] = None
        s = MonthlySeries(WINDOW_START, tuple(values))
        with pytest.raises(EstimationError):
            segment_trend(s, SPEC, "pre")


class TestSpecValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("pre_window", 2),
            ("post_window", 0),
            ("hac_lags", -1),
            ("transform", "logs"),
            ("se_type", "hac"),
            *[(f, v) for f in ("pre_window", "post_window", "hac_lags") for v in (math.nan, math.inf)],
            ("pre_window", 28.5),
            ("post_window", 29.0),
            ("hac_lags", 2.5),
            ("hac_lags", True),
        ],
    )
    def test_out_of_range_or_non_finite_field_rejected(self, field, value):
        with pytest.raises(SpecError) as err:
            TrendBreakSpec(cutoff_month=CUTOFF, **{field: value})
        assert err.value.field == field

    def test_numpy_integers_accepted(self):
        spec = TrendBreakSpec(
            cutoff_month=CUTOFF, pre_window=np.int64(28), post_window=np.int32(29), hac_lags=np.int64(2)
        )
        assert (spec.pre_window, spec.post_window, spec.hac_lags) == (28, 29, 2)


class TestAnnualize:
    def test_zero(self):
        assert annualize_log_slope(0.0) == 0.0

    def test_paper_scale_decline(self):
        assert annualize_log_slope(-0.09) == pytest.approx(-0.66, abs=0.005)

    def test_analytic_value(self):
        assert annualize_log_slope(-0.05) == pytest.approx(math.exp(-0.6) - 1.0, abs=1e-12)
        assert annualize_log_slope(-0.05) == pytest.approx(-0.451, abs=5e-4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            annualize_log_slope(float("nan"))
