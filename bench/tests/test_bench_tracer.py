"""The outside-in span tracer and the benchmark's refusal to run without a checkout."""

import shutil
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from breaklens import pipeline, replication_audit, trade_ingest  # noqa: E402
from breaklens.series import SeriesMeta, read_series_csv  # noqa: E402

FIXTURES = ROOT / "fixtures"


def test_wraps_every_lookup_site_and_restores_them():
    original = trade_ingest.aggregate_series
    t = tracer.Tracer()
    t.install()
    try:
        for module in (pipeline, replication_audit, trade_ingest):
            assert module.aggregate_series is not original
            assert module.aggregate_series.__wrapped__ is original
    finally:
        t.uninstall()
    assert replication_audit.aggregate_series is original
    assert pipeline.aggregate_series is original


def test_counts_calls_rows_and_self_time():
    t = tracer.Tracer()
    t.install()
    try:
        records = trade_ingest.parse_records(FIXTURES / "demo_records.csv")
        target = read_series_csv(FIXTURES / "demo_extracted_food.csv", SeriesMeta(label="t"))
        dates = [datetime(2020, m, 1, tzinfo=timezone.utc) for m in (1, 4, 7)]
        replication_audit.search_vintage_date(records, target, dates, trade_ingest.ANOVA_FOOD)
    finally:
        t.uninstall()
    summary = tracer.summarize(t.spans)
    assert summary["trade_ingest.parse_records"]["rows"] == 1944
    assert summary["trade_ingest.apply_vintage"]["calls"] == 3
    assert summary["trade_ingest.apply_vintage"]["rows_in"] == 3 * 1944
    assert summary["trade_ingest.aggregate_series"]["calls"] == 3
    assert summary["replication_audit.search_vintage_date"]["candidates"] == 3
    search = summary["replication_audit.search_vintage_date"]
    children = sum(
        summary[f"trade_ingest.{n}"]["total_s"] for n in ("apply_vintage", "aggregate_series")
    )
    assert abs(search["self_s"] - (search["total_s"] - children)) < 1e-9
    assert summary["ols.fit_ols"]["calls"] == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        [0, None, 0, "a", 0.0, 10.0, None],
        [1, 0, 0, "b", 1.0, 4.0, None],
        [2, 1, 0, "c", 2.0, 3.0, None],
        [3, 0, 0, "c", 5.0, 7.0, None],
    ]
    s = tracer.summarize(spans, layers={"a": {}, "b": {}, "c": {}})
    assert s["a"]["self_s"] == 5.0
    assert s["b"]["self_s"] == 2.0
    assert s["c"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_missing_layer_is_reported_absent_without_crashing():
    layers = {"trade_ingest.no_such_function": {}, "no_such_module.f": {},
              "trade_ingest.parse_records": tracer.LAYERS["trade_ingest.parse_records"]}
    t = tracer.Tracer(layers)
    t.install()
    t.uninstall()
    assert sorted(t.absent) == ["no_such_module.f", "trade_ingest.no_such_function"]
    summary = tracer.summarize(t.spans, layers)
    assert summary["no_such_module.f"]["calls"] == 0


def test_trimmed_mean_drops_a_tenth_from_each_end():
    assert run.trimmed_mean([1.0, 2.0, 9.0]) == 4.0
    assert run.trimmed_mean([100.0] + [1.0] * 8 + [-100.0]) == 1.0


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail_percentile([3.0, 1.0, 2.0, 4.0]) == (0.5, 2.5)
    assert run.tail_percentile([float(i) for i in range(1, 41)]) == (0.75, 30.25)
    q, value = run.tail_percentile([float(i) for i in range(1, 2001)])
    assert q == 0.99 and abs(value - 1980.01) < 1e-9


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "estimator_mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert "missing" in done.stderr
