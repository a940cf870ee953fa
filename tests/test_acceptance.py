"""Acceptance suite.

Criteria 1-8 are self-contained property/oracle checks that run in seconds.
Criteria 9-12 need the replication dataset (not distributable with the
repository); they are skipped unless ``data/replication/`` holds:

    trade_records.csv             partner-reported records, full input schema
    anova_extracted_food.csv      digitized restricted-food series (month, value)
    anova_extracted_medicines.csv digitized medicines series (month, value)

Each test prints one PASS line; run with ``pytest -s tests/test_acceptance.py``
to see them.
"""

import math
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
import scipy.linalg

from breaklens import pipeline
from breaklens.rdd_local_poly import RddSpec, rd_estimate, rd_estimate_xy
from breaklens.replication_audit import compare_series, search_vintage_date
from breaklens.series import MonthlySeries, read_series_csv
from breaklens.trade_ingest import (
    ANOVA_FOOD,
    FULL_FOOD,
    MEDICINES,
    CategorySet,
    VintagePolicy,
    aggregate_series,
    apply_vintage,
    category_share,
    parse_records,
)
from breaklens.trend_break import (
    TrendBreakSpec,
    annualize_log_slope,
    counterfactual_projection,
    feasibility_check,
    fit_trend_break,
    log_transform,
    segment_trend,
)
from util import record, records_of
from conftest import REPLICATION_DIR
from util import CUTOFF, WINDOW_START, piecewise, series_from_fn

SPEC = TrendBreakSpec(cutoff_month=CUTOFF)

HAS_REPLICATION_DATA = (REPLICATION_DIR / "trade_records.csv").exists()
needs_data = pytest.mark.skipif(
    not HAS_REPLICATION_DATA,
    reason=f"replication dataset not present under {REPLICATION_DIR}",
)


def _random_window_series(rng):
    a = (
        rng.uniform(50, 150),
        rng.uniform(-30, 30),
        rng.uniform(-3, 0),
        rng.uniform(0, 4),
    )
    values = []
    for t in range(-28, 29):
        d = 1 if t >= 0 else 0
        y = a[0] + a[1] * d + a[2] * t + a[3] * t * d + rng.standard_normal() * 5
        values.append(max(0.0, y))
    return MonthlySeries(WINDOW_START, tuple(values))


def test_criterion_1_ols_oracle():
    """fit_trend_break vs a brute-force normal-equations solver, 100 series."""
    rng = np.random.default_rng(101)
    worst_coef = worst_se = 0.0
    for _ in range(100):
        s = _random_window_series(rng)
        fit = fit_trend_break(s, SPEC)
        t = np.asarray(fit.t_values, float)
        d = (t >= 0).astype(float)
        X = np.column_stack([np.ones_like(t), d, t, t * d])
        y = s.values[~np.isnan(s.values)]
        xtx_inv = scipy.linalg.inv(X.T @ X)
        coef = xtx_inv @ X.T @ y
        resid = y - X @ coef
        se = np.sqrt(np.diag(xtx_inv * (resid @ resid) / (len(y) - 4)))
        worst_coef = max(worst_coef, float(np.max(np.abs(np.asarray(fit.coefficients) - coef))))
        worst_se = max(worst_se, float(np.max(np.abs(np.asarray(fit.se) - se))))
    assert worst_coef < 1e-10
    assert worst_se < 1e-10
    print(
        f"\ncriterion 1 (OLS oracle, 100 series): PASS "
        f"max |d coef|={worst_coef:.2e}, max |d se|={worst_se:.2e}"
    )


def test_criterion_2_saturated_model_equivalence():
    """Four-parameter fit equals two independent segment lines, 100 series."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        s = _random_window_series(rng)
        fit = fit_trend_break(s, SPEC)
        pre = segment_trend(s, SPEC, "pre")
        post = segment_trend(s, SPEC, "post")
        gaps = (
            fit.alpha0 - pre.intercept,
            fit.alpha2 - pre.slope,
            fit.alpha0 + fit.alpha1 - post.intercept,
            fit.alpha2 + fit.alpha3 - post.slope,
        )
        worst = max(worst, max(abs(g) for g in gaps))
    assert worst < 1e-9
    print(f"\ncriterion 2 (saturated-model equivalence, 100 series): PASS max gap={worst:.2e}")


def test_criterion_3_exact_recovery_and_zero_crossing():
    """Noiseless piecewise-affine input: exact coefficients, R2 = 1, and the
    analytic counterfactual zero crossing (10 - 0.5 t falls below zero at 21)."""
    s = series_from_fn(piecewise(10, -0.5, 12, 0.2))
    fit = fit_trend_break(s, SPEC)
    np.testing.assert_allclose(fit.coefficients, (10.0, 2.0, -0.5, 0.7), atol=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    path = counterfactual_projection(fit, 28)
    check = feasibility_check(path)
    assert not check.feasible
    assert check.infeasible_at_t == 21
    print(
        "\ncriterion 3 (exact recovery): PASS coefficients (10, 2, -0.5, 0.7), "
        f"R2=1, zero crossing at t={check.infeasible_at_t}"
    )


def test_criterion_4_rdd_windowed_ols_oracle():
    """Uniform-kernel manual-h estimates equal differences of plain window OLS
    fits; a noiseless +2 step is recovered exactly at every bandwidth."""
    rng = np.random.default_rng(104)
    t = np.arange(-50.0, 51.0)
    worst = 0.0
    for _ in range(25):
        y = 1.0 + 0.05 * t + 0.002 * t * t + 0.5 * rng.standard_normal(len(t))
        h = float(rng.integers(5, 20))
        spec = RddSpec(cutoff_month=CUTOFF, estimand="level", kernel="uniform", bandwidth=h)
        fit = rd_estimate_xy(t, y, spec)

        def window_fit(mask):
            X = np.column_stack([np.ones(int(mask.sum())), t[mask]])
            return np.linalg.lstsq(X, y[mask], rcond=None)[0][0]

        oracle = window_fit((t >= 0) & (t <= h)) - window_fit((t < 0) & (t >= -h))
        worst = max(worst, abs(fit.tau - oracle))
    assert worst < 1e-10

    step = 1.0 + 0.3 * t + 2.0 * (t >= 0)
    step_worst = 0.0
    for h in (3.0, 5.0, 8.0, 13.0, 21.0, 34.0):
        for kernel in ("triangular", "uniform"):
            spec = RddSpec(cutoff_month=CUTOFF, estimand="level", kernel=kernel, bandwidth=h)
            fit = rd_estimate_xy(t, step, spec)
            step_worst = max(step_worst, abs(fit.tau - 2.0))
    assert step_worst < 1e-9
    print(
        f"\ncriterion 4 (windowed-OLS oracle): PASS max |d tau|={worst:.2e}, "
        f"step recovery error={step_worst:.2e}"
    )


def test_criterion_5_robust_ci_coverage():
    """95% robust bias-corrected intervals cover a known jump within +/- 3pp
    across 2000 seeded Monte Carlo replications (curved per-side cubics)."""
    rng = np.random.default_rng(105)
    tau_true = 1.0
    reps = 2000
    covered = 0
    spec = RddSpec(cutoff_month=CUTOFF, estimand="level")  # t is already centred
    for _ in range(reps):
        t = rng.uniform(-1.0, 1.0, 500)
        m = np.where(
            t < 0,
            t**2 - 0.5 * t**3,
            tau_true + 0.5 * t - t**2 + 0.8 * t**3,
        )
        y = m + 0.5 * rng.standard_normal(500)
        fit = rd_estimate_xy(t, y, spec)
        lo, hi = fit.ci_robust
        covered += lo <= tau_true <= hi
    coverage = covered / reps
    assert abs(coverage - 0.95) <= 0.03
    print(f"\ncriterion 5 (robust-CI coverage, {reps} reps): PASS coverage={coverage:.3f}")


def test_criterion_6_vintage_monotonicity_and_additivity():
    """1000 randomized record sets: earlier cutoffs keep a subset of records
    (so monthly values can only grow with the cutoff) and aggregation is
    additive over disjoint category sets."""
    rng = np.random.default_rng(106)
    chapters = sorted(FULL_FOOD.codes)
    span = (date(2017, 1, 1), date(2017, 12, 1))
    part_a = CategorySet("part_a", frozenset({"02", "03", "04", "06", "07", "08"}))
    part_b = CategorySet("part_b", FULL_FOOD.codes - part_a.codes)
    for k in range(1000):
        records = records_of(
            *(
                record(
                    period=date(2017, int(rng.integers(1, 13)), 1),
                    reporter="VEN",
                    partner=f"P{i}",
                    hs2=chapters[int(rng.integers(0, len(chapters)))],
                    value_usd=float(rng.uniform(0, 5e6)),
                    submitted=datetime(
                        2018 + int(rng.integers(0, 4)),
                        int(rng.integers(1, 13)),
                        int(rng.integers(1, 28)),
                        tzinfo=timezone.utc,
                    ),
                    updated=datetime(2023, 1, 1, tzinfo=timezone.utc),
                )
                for i in range(int(rng.integers(5, 25)))
            )
        )
        c1 = datetime(2019, int(rng.integers(1, 13)), 1, tzinfo=timezone.utc)
        c2 = c1 + timedelta(days=int(rng.integers(30, 720)))
        kept1 = apply_vintage(records, VintagePolicy(cutoff_instant=c1))
        kept2 = apply_vintage(records, VintagePolicy(cutoff_instant=c2))
        # every row is unique (one partner per row), so rows stand for records
        assert set(kept1.tolist()) <= set(kept2.tolist())
        s1 = aggregate_series(kept1, FULL_FOOD, span)
        s2 = aggregate_series(kept2, FULL_FOOD, span)
        assert all(a <= b + 1e-12 for a, b in zip(s1.values, s2.values))
        sa = aggregate_series(records, part_a, span)
        sb = aggregate_series(records, part_b, span)
        st = aggregate_series(records, FULL_FOOD, span)
        assert all(
            abs(x + y - z) <= 1e-9 for x, y, z in zip(sa.values, sb.values, st.values)
        )
    print("\ncriterion 6 (vintage monotonicity + additivity, 1000 sets): PASS")


TABLE2_SHARES = {
    "02": 3.2, "03": 0.2, "04": 5.9, "06": 0.0, "07": 4.1, "08": 0.5,
    "10": 38.9, "11": 5.5, "12": 2.4, "13": 0.3, "14": 0.0, "15": 11.0,
    "16": 3.5, "17": 8.0, "18": 0.4, "19": 9.7, "20": 1.2, "21": 3.8,
    "22": 1.0, "24": 0.4,
}


def test_criterion_7_chapter_share_fixture():
    """A 2017 fixture with the published chapter shares: the omitted chapters
    10-19 carry 79.7% of food imports and all shares sum to 100%."""
    records = records_of(
        *(
            record(
                period=date(2017, 6, 1),
                reporter="VEN",
                partner="ALL",
                hs2=code,
                value_usd=share * 1e7,
                submitted=datetime(2018, 1, 1, tzinfo=timezone.utc),
                updated=datetime(2018, 1, 1, tzinfo=timezone.utc),
            )
            for code, share in TABLE2_SHARES.items()
            if share > 0.0
        )
    )
    excluded = CategorySet("cereals_and_oils", FULL_FOOD.codes - ANOVA_FOOD.codes)
    share = category_share(records, excluded, FULL_FOOD, 2017)
    assert share == pytest.approx(0.797, abs=0.0005)
    total = sum(TABLE2_SHARES.values())
    assert total == pytest.approx(100.0, abs=0.1)
    # singleton shares recompose to one
    parts = sum(
        category_share(records, CategorySet(c, frozenset({c})), FULL_FOOD, 2017)
        for c in TABLE2_SHARES
    )
    assert parts == pytest.approx(1.0, abs=0.001)
    print(f"\ncriterion 7 (chapter-share fixture): PASS excluded share={share:.4f}")


def test_criterion_8_analytic_anchors():
    """Log-slope annualization and the levels decline-per-year arithmetic."""
    annual = annualize_log_slope(-0.09)
    assert annual == pytest.approx(-0.66, abs=0.005)
    decline_per_year = (7.5 - 1.9) / 3.0
    assert decline_per_year == pytest.approx(5.6 / 3.0, abs=1e-12)
    # the published figure truncates to one decimal
    assert math.floor(decline_per_year * 10) / 10 == 1.8
    print(
        f"\ncriterion 8 (analytic anchors): PASS annualized={annual:.4f}, "
        f"decline per year={decline_per_year:.4f} (prints as 1.8)"
    )


# -- data-conditional criteria (9-12) ----------------------------------------

OCT_2020 = datetime(2020, 10, 1, tzinfo=timezone.utc)
REPLICATION_SPAN = (date(2012, 1, 1), date(2020, 12, 1))


@pytest.fixture(scope="module")
def replication_records():
    if not HAS_REPLICATION_DATA:
        pytest.skip(f"replication dataset not present under {REPLICATION_DIR}")
    return parse_records(REPLICATION_DIR / "trade_records.csv")


def _vintage_series(records, category, cutoff):
    kept = records if cutoff is None else apply_vintage(records, VintagePolicy(cutoff_instant=cutoff))
    return aggregate_series(kept, category, REPLICATION_SPAN)


def test_vintage_series_helper_matches_demo_run(fixtures_dir, tmp_path, monkeypatch):
    """The helper of criteria 9-12, which run only with the replication data,
    builds the series that the demo run aggregates for one set and vintage."""
    built = []

    def capture(*args, **kwargs):
        built.append(aggregate_series(*args, **kwargs))
        return built[-1]

    # the demo audits anova_food at the 2020-10-01 vintage, the one cell the audit aggregates
    monkeypatch.setattr(pipeline, "aggregate_series", capture)
    config = pipeline.load_config(fixtures_dir / "demo_config.json")
    pipeline.run_pipeline(config, fixtures_dir, out_dir=tmp_path, audit_only=True)
    (want,) = built
    got = _vintage_series(parse_records(fixtures_dir / config.data_file), ANOVA_FOOD, OCT_2020)
    assert (got.start_month, got.end_month) == (want.start_month, want.end_month)
    assert got.values.tobytes() == want.values.tobytes()


TABLE3_CELLS = {
    # (category, transform, vintage): (level, level_se, slope, slope_se)
    ("anova_food", "levels", "oct2020"): (44.86, 13.82, 6.46, 1.09),
    ("full_food", "levels", "oct2020"): (91.94, 42.62, 6.21, 2.79),
    ("medicines", "levels", "oct2020"): (19.6, 5.70, 5.47, 0.49),
    ("anova_food", "log", "oct2020"): (0.53, 0.25, 0.04, 0.01),
    ("full_food", "log", "oct2020"): (0.38, 0.22, 0.01, 0.01),
    ("medicines", "log", "oct2020"): (-0.05, 0.19, 0.07, 0.01),
    ("anova_food", "log", "latest"): (0.56, 0.26, 0.05, 0.01),
    ("full_food", "log", "latest"): (0.34, 0.22, 0.02, 0.01),
    ("medicines", "log", "latest"): (-0.22, 0.20, 0.1, 0.01),
}

CATEGORIES = {"anova_food": ANOVA_FOOD, "full_food": FULL_FOOD, "medicines": MEDICINES}


@needs_data
def test_criterion_9_trend_table_reproduction(replication_records):
    """All 18 published coefficient/SE cells to +/- 0.01, including the
    marginal full-food log level at p around 0.094."""
    for (cat, transform, vintage), expected in TABLE3_CELLS.items():
        cutoff = OCT_2020 if vintage == "oct2020" else None
        series = _vintage_series(replication_records, CATEGORIES[cat], cutoff)
        if transform == "log":
            series = log_transform(series)
        fit = fit_trend_break(series, TrendBreakSpec(cutoff_month=CUTOFF, transform=transform))
        level, level_se, slope, slope_se = expected
        assert fit.alpha1 == pytest.approx(level, abs=0.01), (cat, transform, vintage)
        assert fit.se[1] == pytest.approx(level_se, abs=0.01), (cat, transform, vintage)
        assert fit.alpha3 == pytest.approx(slope, abs=0.01), (cat, transform, vintage)
        assert fit.se[3] == pytest.approx(slope_se, abs=0.01), (cat, transform, vintage)
        if (cat, transform, vintage) == ("full_food", "log", "oct2020"):
            assert fit.p_values[1] == pytest.approx(0.094, abs=0.005)
    print("\ncriterion 9 (trend-table reproduction, 18 cells): PASS")


@needs_data
def test_criterion_10_audit_reproduction(replication_records):
    """Extracted-versus-reconstructed agreement and the vintage search."""
    pairs = [
        (
            "anova_extracted_food.csv",
            ANOVA_FOOD,
            (44.26, 13.68, 6.48, 1.09),
            (44.86, 13.82, 6.46, 1.09),
        ),
        (
            "anova_extracted_medicines.csv",
            MEDICINES,
            (21.47, 5.76, 5.79, 0.52),
            (19.6, 5.70, 5.47, 0.49),
        ),
    ]
    for filename, category, extracted_cells, reconstructed_cells in pairs:
        target = read_series_csv(REPLICATION_DIR / filename)
        reconstructed = _vintage_series(replication_records, category, OCT_2020)
        assert compare_series(target, reconstructed, SPEC).correlation >= 0.999, filename
        fits = (fit_trend_break(target, SPEC), fit_trend_break(reconstructed, SPEC))
        for fit, cells in zip(fits, (extracted_cells, reconstructed_cells)):
            assert fit.alpha1 == pytest.approx(cells[0], abs=0.01), filename
            assert fit.se[1] == pytest.approx(cells[1], abs=0.01), filename
            assert fit.alpha3 == pytest.approx(cells[2], abs=0.01), filename
            assert fit.se[3] == pytest.approx(cells[3], abs=0.01), filename

    target = read_series_csv(REPLICATION_DIR / "anova_extracted_food.csv")
    candidates = []
    day = date(2020, 10, 1)
    while day <= date(2020, 12, 31):
        candidates.append(datetime(day.year, day.month, day.day, tzinfo=timezone.utc))
        day += timedelta(days=7)
    result = search_vintage_date(replication_records, target, candidates, ANOVA_FOOD)
    assert result.best == OCT_2020
    print("\ncriterion 10 (audit reproduction + vintage search): PASS")


TABLE4_SIGNS = {
    # category: (level sign, slope sign)
    "anova_food": (-1, -1),
    "full_food": (-1, -1),
    "medicines": (+1, -1),
}


@needs_data
def test_criterion_11_rdd_pattern(replication_records):
    """Published discontinuity sign pattern, the strongly significant
    medicines level jump, and bandwidths inside 6-16 months."""
    ratio_parts = {}
    for cat, (level_sign, slope_sign) in TABLE4_SIGNS.items():
        series = log_transform(_vintage_series(replication_records, CATEGORIES[cat], None))
        for estimand, sign in (("level", level_sign), ("slope", slope_sign)):
            fit = rd_estimate(series, RddSpec(cutoff_month=CUTOFF, estimand=estimand))
            assert math.copysign(1, fit.tau) == sign, (cat, estimand, fit.tau)
            assert 6.0 <= fit.h_used <= 16.0, (cat, estimand, fit.h_used)
            if cat == "medicines":
                ratio_parts[estimand] = fit
    assert ratio_parts["level"].p_robust < 0.01
    ratio = abs(ratio_parts["level"].tau) / abs(ratio_parts["slope"].tau)
    assert ratio == pytest.approx(3.0, abs=1.0)
    print("\ncriterion 11 (discontinuity pattern): PASS")


@needs_data
def test_criterion_12_counterfactual_diagnostics(replication_records):
    """Levels projections reach about -208 (food) and -167 (medicines) USD mn
    per month by the end of 2019; the medicines log projection exponentiates
    to about 1.5 USD mn per month."""
    horizon = 28  # through December 2019
    food = _vintage_series(replication_records, ANOVA_FOOD, OCT_2020)
    food_fit = fit_trend_break(food, SPEC)
    food_path = counterfactual_projection(food_fit, horizon)
    assert food_path.values[-1] == pytest.approx(-208.0, abs=10.0)
    assert not feasibility_check(food_path).feasible

    med = _vintage_series(replication_records, MEDICINES, OCT_2020)
    med_fit = fit_trend_break(med, SPEC)
    med_path = counterfactual_projection(med_fit, horizon)
    assert med_path.values[-1] == pytest.approx(-167.0, abs=10.0)

    med_log_fit = fit_trend_break(log_transform(med), TrendBreakSpec(cutoff_month=CUTOFF, transform="log"))
    med_log_path = counterfactual_projection(med_log_fit, horizon)
    assert math.exp(med_log_path.values[-1]) == pytest.approx(1.5, abs=0.3)
    print("\ncriterion 12 (counterfactual diagnostics): PASS")
