"""Each benchmark oracle agrees with breaklens on the demo fixture."""

import json
import sys
import warnings
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
from breaklens.months import format_timestamp  # noqa: E402
from breaklens.pipeline import load_config, run_pipeline  # noqa: E402
from breaklens.rdd_local_poly import RddSpec, rd_estimate  # noqa: E402
from breaklens.replication_audit import search_vintage_date  # noqa: E402
from breaklens.series import SeriesMeta, read_series_csv  # noqa: E402
from breaklens.trade_ingest import (  # noqa: E402
    BUILTIN_CATEGORY_SETS,
    VintagePolicy,
    aggregate_series,
    apply_vintage,
    parse_records,
)
from breaklens.trend_break import TrendBreakSpec, fit_trend_break, log_transform  # noqa: E402

FIXTURES = ROOT / "fixtures"
RECORDS = FIXTURES / "demo_records.csv"
TARGET = FIXTURES / "demo_extracted_food.csv"
CUTOFF = date(2017, 8, 1)
SPAN = (date(2012, 1, 1), date(2020, 12, 1))


@pytest.fixture(scope="module")
def demo():
    return parse_records(RECORDS), oracles.Records(RECORDS)


def _reference(records, name, cutoff):
    kept = records if cutoff is None else apply_vintage(records, VintagePolicy(cutoff))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return aggregate_series(kept, BUILTIN_CATEGORY_SETS[name], SPAN)


@pytest.mark.parametrize("name", sorted(oracles.CATEGORY_SETS))
@pytest.mark.parametrize("cutoff", [None, "2014-06-30T12:00:00Z", "2020-10-01T00:00:00Z"])
def test_vintage_filter_and_aggregate_match(demo, name, cutoff):
    records, ref = demo
    when = None if cutoff is None else datetime.fromisoformat(cutoff[:-1]).replace(tzinfo=timezone.utc)
    want = _reference(records, name, when).values
    start, end = oracles.month_index("2012-01"), oracles.month_index("2020-12")
    got = oracles.aggregate(ref.subset(oracles.CATEGORY_SETS[name], start, end), len(want), cutoff)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_trend_coefficients_match(demo):
    records, _ = demo
    series = _reference(records, "anova_food", None)
    for transform in ("levels", "log"):
        used = log_transform(series) if transform == "log" else series
        fit = fit_trend_break(used, TrendBreakSpec(CUTOFF, transform=transform))
        lo = 67 - 28
        values = [np.nan if v is None else v for v in used.values[lo : lo + 57]]
        want = oracles.trend_coefficients(values, (-28, 28))
        assert oracles.coefficients_close(fit.coefficients, want, max(abs(v) for v in values if v == v))


def test_vintage_distances_match_search(demo):
    records, ref = demo
    target = read_series_csv(TARGET, SeriesMeta(label="target"))
    dates = [datetime(2020, 1, 1, tzinfo=timezone.utc), datetime(2020, 6, 15, tzinfo=timezone.utc),
             datetime(2020, 10, 1, tzinfo=timezone.utc), datetime(2021, 1, 1, tzinfo=timezone.utc)]
    result = search_vintage_date(records, target, dates, BUILTIN_CATEGORY_SETS["anova_food"])
    cutoffs = [format_timestamp(d) for d in dates]
    distances = oracles.vintage_distances(ref, oracles.CATEGORY_SETS["anova_food"], TARGET, cutoffs)
    reported = [[format_timestamp(c), d] for c, d in result.candidates]
    assert oracles.check_search(cutoffs, distances, reported, format_timestamp(result.best)) == []
    wrong = [[c, d + 1e-6] for c, d in reported]
    assert oracles.check_search(cutoffs, distances, wrong, format_timestamp(result.best))


@pytest.mark.parametrize("estimand,nu", [("level", 0), ("slope", 1)])
def test_rd_tau_matches_at_returned_bandwidth(demo, estimand, nu):
    records, _ = demo
    series = log_transform(_reference(records, "anova_food", None))
    fit = rd_estimate(series, RddSpec(CUTOFF, estimand=estimand))
    t, y = series.to_arrays(CUTOFF)
    tau = oracles.rd_tau(t, y, fit.h_used, fit.poly_order, nu)
    assert oracles.tau_close(fit.tau, tau, y)
    assert not oracles.tau_close(fit.tau * (1 + 1e-5), tau, y)


def test_cli_check_accepts_demo_run_and_flags_a_wrong_coefficient(tmp_path):
    config = json.loads((FIXTURES / "demo_config.json").read_text())
    expected = run.expected_cli(config, oracles.Records(RECORDS), TARGET)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(load_config(FIXTURES / "demo_config.json"), FIXTURES, tmp_path)
    results = json.loads((tmp_path / "results.json").read_text())
    assert run.check_cli(results, expected) == []
    levels = next(r for r in results["trend_break"] if r["transform"] == "levels")
    levels["coef"]["alpha1"] *= 1.0 + 1e-4
    assert run.check_cli(results, expected)
