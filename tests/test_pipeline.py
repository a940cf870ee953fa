import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import breaklens.cli as cli
import breaklens.pipeline as pipeline
from breaklens.cli import main
from breaklens.errors import ConfigError
from breaklens.months import add_months, month_diff
from breaklens.pipeline import RunConfig, export_figure_data, load_config, run_pipeline
from breaklens.rdd_local_poly import RddSpec, rd_estimate
from breaklens.series import read_series_csv
from breaklens.trade_ingest import (
    BUILTIN_CATEGORY_SETS,
    RECORD_COLUMNS,
    VintagePolicy,
    aggregate_series,
    apply_vintage,
    parse_records,
)
from breaklens.trend_break import (
    TrendBreakSpec,
    counterfactual_projection,
    fit_trend_break,
    log_transform,
)
from util import CUTOFF, piecewise, reference_series, series_from_fn, set_path, ts


@pytest.fixture(scope="module")
def demo_run(fixtures_dir_module, tmp_path_factory):
    config = load_config(fixtures_dir_module / "demo_config.json")
    out = tmp_path_factory.mktemp("demo_out")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results, out_path = run_pipeline(config, fixtures_dir_module, out_dir=out)
    return config, results, out_path


@pytest.fixture(scope="module")
def fixtures_dir_module():
    return Path(__file__).resolve().parent.parent / "fixtures"


class TestConfig:
    def test_roundtrip_object_identity(self, fixtures_dir_module):
        config = load_config(fixtures_dir_module / "demo_config.json")
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_roundtrip_dict_identity(self, fixtures_dir_module):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        assert RunConfig.from_dict(raw).to_dict() == raw

    def test_empty_series_rejected(self, fixtures_dir_module):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["series"] = []
        config = RunConfig.from_dict(raw)
        with pytest.raises(ConfigError, match="series"):
            config.validate(fixtures_dir_module)

    def test_missing_data_file_rejected(self, fixtures_dir_module):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["data_file"] = "nope.csv"
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_dict(raw).validate(fixtures_dir_module)

    def test_unknown_category_set_rejected(self, fixtures_dir_module):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["series"][0]["category_set"] = "mystery"
        with pytest.raises(ConfigError, match="category set"):
            RunConfig.from_dict(raw).validate(fixtures_dir_module)

    def test_unknown_audit_vintage_rejected(self, fixtures_dir_module):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["audits"][0]["vintage"] = "2031-01-01"
        with pytest.raises(ConfigError, match="vintage"):
            RunConfig.from_dict(raw).validate(fixtures_dir_module)

    def test_colliding_figure_files_name_both_cells(self, fixtures_dir_module):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["series"] = [{"label": label, "category_set": "anova_food"} for label in ("a_levels", "a")]
        raw["vintages"] = [{"label": "v"}, {"label": "log_v"}]
        raw.update(panels=None, rdd=None, audits=[])
        message = "figures: cells 'a_levels/log/v' and 'a/levels/log_v' both write 'a_levels_log_v.csv'"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            RunConfig.from_dict(raw).validate(fixtures_dir_module)

    def test_empty_search_block_gets_default_weekly_grid(self, fixtures_dir_module):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["audits"][0]["search"] = {}
        config = RunConfig.from_dict(raw)
        grid = config.audits[0].search
        candidates = grid.candidates()
        assert candidates[0].date().isoformat() == "2020-10-01"
        assert candidates[-1].date().isoformat() <= "2020-12-31"
        assert (candidates[1] - candidates[0]).days == 7

    def test_user_defined_category_set(self, fixtures_dir_module, tmp_path):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["category_sets"] = {"cereals_only": ["10"]}
        raw["series"] = [{"label": "cereals_only", "category_set": "cereals_only"}]
        raw["audits"] = []
        raw["rdd"] = None
        raw["panels"] = None
        cfg = RunConfig.from_dict(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results, _ = run_pipeline(cfg, fixtures_dir_module, out_dir=tmp_path / "o")
        assert {r["series"] for r in results["trend_break"]} == {"cereals_only"}


class TestPipelineRun:
    def test_outputs_exist(self, demo_run):
        _, results, out_path = demo_run
        assert (out_path / "results.json").exists()
        assert (out_path / "tables" / "trend_table.txt").exists()
        assert (out_path / "tables" / "rdd_table.txt").exists()
        assert (out_path / "tables" / "audit_table.txt").exists()
        assert (out_path / "audit.csv").exists()
        figures = list((out_path / "figures").glob("*.csv"))
        # 3 series x 2 transforms x 2 vintages
        assert len(figures) == 12
        assert len(results["trend_break"]) == 12
        assert len(results["rdd"]) == 6

    def test_composition_matches_direct_calls(self, demo_run, fixtures_dir_module):
        config, results, _ = demo_run
        records = parse_records(fixtures_dir_module / config.data_file)
        cutoff = next(v.cutoff for v in config.vintages if v.label == "2020-10-01")
        kept = apply_vintage(records, VintagePolicy(cutoff_instant=cutoff))
        # the pipeline aggregates over trend window union the rdd sample
        span = (date(2012, 1, 1), date(2020, 12, 1))
        base = aggregate_series(kept, BUILTIN_CATEGORY_SETS["anova_food"], span)
        spec = TrendBreakSpec(cutoff_month=date(2017, 8, 1))
        direct = fit_trend_break(base, spec)
        cell = next(
            r
            for r in results["trend_break"]
            if r["series"] == "anova_food"
            and r["transform"] == "levels"
            and r["vintage"] == "2020-10-01"
        )
        assert cell["coef"]["alpha1"] == pytest.approx(direct.alpha1, abs=1e-12)
        assert cell["se"]["alpha3"] == pytest.approx(direct.se[3], abs=1e-12)
        assert cell["n"] == direct.n

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            latest = aggregate_series(records, BUILTIN_CATEGORY_SETS["medicines"], span)
            rd_direct = rd_estimate(
                log_transform(latest),
                RddSpec(
                    cutoff_month=date(2017, 8, 1),
                    estimand="slope",
                    bandwidth_sample=(date(2012, 1, 1), date(2020, 12, 1)),
                ),
            )
        rd_cell = next(
            r
            for r in results["rdd"]
            if r["series"] == "medicines" and r["estimand"] == "slope"
        )
        assert rd_cell["tau"] == pytest.approx(rd_direct.tau, abs=1e-12)
        assert rd_cell["h_months"] == pytest.approx(rd_direct.h_used, abs=1e-12)

    def test_rerun_is_byte_identical(self, demo_run, fixtures_dir_module, tmp_path):
        config, _, out_path = demo_run
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, second = run_pipeline(config, fixtures_dir_module, out_dir=tmp_path / "again")
        for rel in ["results.json", "audit.csv", "tables/trend_table.txt", "tables/rdd_table.txt"]:
            assert (out_path / rel).read_bytes() == (second / rel).read_bytes(), rel
        firsts = sorted((out_path / "figures").glob("*.csv"))
        seconds = sorted((second / "figures").glob("*.csv"))
        for a, b in zip(firsts, seconds):
            assert a.read_bytes() == b.read_bytes()

    def test_bundle_matches_committed_digests(self, demo_run):
        _, _, out_path = demo_run
        lines = (Path(__file__).parent / "demo_bundle.sha256").read_text(encoding="utf-8").splitlines()
        want = {name: digest for digest, name in (ln.split() for ln in lines if not ln.startswith("#"))}
        got = {
            p.relative_to(out_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out_path.rglob("*")
            if p.is_file()
        }
        assert sorted(got) == sorted(want), "the bundle's file list changed"
        assert [name for name in sorted(want) if got[name] != want[name]] == []

    def test_audit_found_planted_vintage(self, demo_run):
        _, results, _ = demo_run
        audit = results["audit"][0]
        assert audit["correlation"] > 0.999
        assert audit["vintage_search"]["best"] == "2020-10-01T00:00:00Z"

    def test_one_estimand_renders_only_its_rows(self, fixtures_dir_module, tmp_path):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["rdd"]["estimands"] = ["level"]
        config = RunConfig.from_dict(raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, out_path = run_pipeline(config, fixtures_dir_module, out_dir=tmp_path / "out")
        table = (out_path / "tables" / "rdd_table.txt").read_text(encoding="utf-8")
        assert [r["estimand"] for r in results["rdd"]] == ["level"] * 3
        assert "Change in level" in table and "slope" not in table
        # the log transform's nonpositive-value warnings are the only ones
        assert all("log transform dropped" in str(w.message) for w in caught)

    def test_no_timestamps_in_results(self, demo_run):
        _, _, out_path = demo_run
        payload = json.loads((out_path / "results.json").read_text())
        assert "generated_at" not in json.dumps(payload)


class TestFigureData:
    def _fit(self, horizon):
        s = series_from_fn(piecewise(10, -0.5, 12, 0.2))
        fit = fit_trend_break(s, TrendBreakSpec(cutoff_month=CUTOFF))
        return s, fit, counterfactual_projection(fit, horizon)

    def test_counterfactual_column_identity(self, tmp_path):
        s, fit, path = self._fit(horizon=28)
        out = tmp_path / "fig.csv"
        export_figure_data(fit, path, s, out)
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["month", "observed", "fitted_pre", "fitted_post", "counterfactual"]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 57
        for row in rows:
            month = date(int(row[0][:4]), int(row[0][5:7]), 1)
            t = month_diff(month, CUTOFF)
            if t >= 0:
                assert float(row[4]) == pytest.approx(fit.alpha0 + fit.alpha2 * t, abs=1e-9)
            else:
                assert row[4] == ""

    def test_zero_horizon_leaves_counterfactual_empty_past_cutoff(self, tmp_path):
        s, fit, path = self._fit(horizon=0)
        out = tmp_path / "fig.csv"
        export_figure_data(fit, path, s, out)
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        for row in rows:
            t = month_diff(date(int(row[0][:4]), int(row[0][5:7]), 1), CUTOFF)
            if t == 0:
                assert row[4] != ""
            elif t > 0:
                assert row[4] == ""

    def test_fitted_columns_split_at_cutoff(self, tmp_path):
        s, fit, path = self._fit(horizon=5)
        out = tmp_path / "fig.csv"
        export_figure_data(fit, path, s, out)
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        for row in rows:
            t = month_diff(date(int(row[0][:4]), int(row[0][5:7]), 1), CUTOFF)
            if t < 0:
                assert row[2] != "" and row[3] == ""
                assert float(row[2]) == pytest.approx(10 - 0.5 * t, abs=1e-8)
            elif t <= 28:
                assert row[2] == "" and row[3] != ""
                assert float(row[3]) == pytest.approx(12 + 0.2 * t, abs=1e-8)


def _write_chapter_02(path, values) -> None:
    """A canonical records file with one chapter-02 row a month from 2015-04,
    ``values`` in millions of USD."""
    stamp = "2020-01-01T00:00:00Z"
    months = [add_months(date(2015, 4, 1), k) for k in range(len(values))]
    rows = [f"{m:%Y%m},VEN,DEU,02,{v * 1_000_000},{stamp},{stamp}" for m, v in zip(months, values)]
    path.write_text("\n".join([",".join(RECORD_COLUMNS), *rows, ""]), encoding="utf-8")


def test_projection_below_zero_runs_end_to_end(tmp_path):
    # chapter 02 falls by 3 a month from 90 before the 2017-08 cutoff and is
    # flat at 50 after it, so the pre-trend line 6 - 3t touches zero at
    # 2017-10 (t = 2) and first goes below it at 2017-11
    _write_chapter_02(tmp_path / "records.csv", [90 - 3 * k if k < 28 else 50 for k in range(57)])
    config = {
        "data_file": "records.csv",
        "series": [{"label": "meat", "category_set": "anova_food"}],
        "vintages": [{"label": "latest"}],
        "transforms": ["levels", "log"],
        "trend_break": {"cutoff_month": "2017-08"},
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 0

    results = json.loads((tmp_path / "out" / "results.json").read_text(encoding="utf-8"))
    levels = results["trend_break"][0]["coef"]
    assert (levels["alpha0"], levels["alpha2"]) == (pytest.approx(6), pytest.approx(-3))
    cells = [(r["transform"], r["feasible"], r["zero_crossing_month"]) for r in results["trend_break"]]
    assert cells == [("levels", False, "2017-11"), ("log", None, None)]
    assert "Panel: levels, vintage latest" in (tmp_path / "out" / "tables" / "trend_table.txt").read_text()
    with open(tmp_path / "out" / "figures" / "meat_levels_latest.csv", newline="") as fh:
        projected = {row["month"]: float(row["counterfactual"]) for row in csv.DictReader(fh) if row["counterfactual"]}
    # the sign of each projected month, up to rounding: zero at 2017-10, below from 2017-11
    signs = {month: (value > 1e-9) - (value < -1e-9) for month, value in projected.items()}
    assert list(signs.values()) == [1, 1, 0] + [-1] * (len(signs) - 3) and list(signs)[3] == "2017-11"


def _records_argv(command, data, fixtures_dir, tmp_path):
    """CLI arguments that make ``command`` read the records file ``data``."""
    if command == "ingest":
        out = tmp_path / "series.csv"
        return ["ingest", "--data", str(data), "--series", "medicines", "--out", str(out)]
    raw = json.loads((fixtures_dir / "demo_config.json").read_text())
    raw["data_file"] = str(data)
    raw["audits"][0]["target_file"] = str(fixtures_dir / raw["audits"][0]["target_file"])
    (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    return ["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]


_HEADER = b"period,reporter_code,partner_code,hs2_code,value_usd,first_submitted_at,last_updated_at"
_ROW = b"201504,VEN,DEU,02,1,2015-01-01T00:00:00Z,2015-01-01T00:00:00Z"

#: Records files the CSV reader cannot read, and the error after the path.
BAD_RECORD_FILES = {
    "undecodable": (
        b"\n".join([_HEADER, _ROW, _ROW.replace(b"VEN", b"V\xff\xfeN"), _ROW, b""]),
        "line 3: not UTF-8: invalid start byte",
    ),
    "oversized field": (
        b"\n".join([_HEADER, _ROW, _ROW.replace(b"DEU", b'"' + b"x" * 200_000 + b'"'), b""]),
        f"line 3: field larger than field limit ({csv.field_size_limit()})",
    ),
    "oversized unquoted field": (
        b"\n".join([_HEADER, _ROW, _ROW.replace(b"DEU", b"x" * 200_000), b""]),
        f"line 3: field larger than field limit ({csv.field_size_limit()})",
    ),
    "duplicate column": (  # named before any row is read, the bad one included
        b"\n".join([_HEADER + b",value_usd", _ROW + b",7", b"not,a,row", b""]),
        "duplicate columns: value_usd",
    ),
}


def _audit_argv(target, fixtures_dir, tmp_path):
    """CLI arguments that make ``breaklens audit`` read the series file ``target``."""
    raw = json.loads((fixtures_dir / "demo_config.json").read_text())
    raw["data_file"] = str(fixtures_dir / raw["data_file"])
    raw["audits"][0]["target_file"] = str(target)
    raw["output_dir"] = str(tmp_path / "o")
    (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    return ["audit", "--config", str(tmp_path / "config.json")]


#: Series files the audit cannot read, and the error after the path.
BAD_SERIES_FILES = {
    "underscore": (b"month,value\n2015-04,1.5\n2015-05,1_000\n", "line 3: bad value '1_000'"),
    "arabic-indic digits": (
        "month,value\n2015-04,\u0661\u0662\n".encode(),
        "line 2: bad value '\u0661\u0662'",
    ),
    "undecodable": (b"month,value\n2015-04,1\n2015-05,\xff\n", "line 3: not UTF-8: invalid start byte"),
    "oversized field": (
        b'month,value\n2015-04,"' + b"1" * 200_000 + b'"\n',
        f"line 2: field larger than field limit ({csv.field_size_limit()})",
    ),
    "row over two lines": (b'month,value\n2015-01,"1\n"\n2015-02,x\n', "line 4: bad value 'x'"),
    "one column": (b"month,value\n2015-04,1\n2015-05\n", "line 3: expected 2 columns"),
    "bad month": (b"month,value\n2015-13,1\n", "line 2: month out of range: '2015-13'"),
    "gap": (b"month,value\n2015-04,1\n\n2015-06,2\n", "line 4: months must be consecutive, found 2015-06"),
    "empty": (b"", "empty series file"),
    "header only": (b"month,value\n\n", "no data rows"),
}


def _cli_stdout(argv, stdout_encoding) -> bytes:
    """The stdout of ``breaklens`` run on ``argv`` in a child process whose
    stdout has ``PYTHONIOENCODING`` ``stdout_encoding``; it must exit 0 without a traceback."""
    done = subprocess.run(
        [sys.executable, "-m", "breaklens.cli", *map(str, argv)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent), "PYTHONIOENCODING": stdout_encoding},
        timeout=120,
    )
    assert done.returncode == 0 and b"Traceback" not in done.stderr, done.stderr
    return done.stdout


class TestCli:
    def test_run_exit_zero(self, fixtures_dir_module, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(
                [
                    "run",
                    "--config",
                    str(fixtures_dir_module / "demo_config.json"),
                    "--out",
                    str(tmp_path / "cli_out"),
                ]
            )
        assert code == 0
        assert (tmp_path / "cli_out" / "results.json").exists()

    def test_bad_config_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["run", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_data_exit_two(self, fixtures_dir_module, tmp_path, capsys):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["data_file"] = "demo_records.csv"
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        # header-only file passes validation but every series aggregates empty,
        # so estimation fails downstream; a malformed row is the cleaner probe
        (cfg_dir / "demo_records.csv").write_text(
            "period,reporter_code,partner_code,hs2_code,value_usd,first_submitted_at,last_updated_at\n"
            "201504,VEN,DEU,02,-1,2015-01-01T00:00:00Z,2015-01-01T00:00:00Z\n",
            encoding="utf-8",
        )
        # the audit target is read first, so it must cover the fit window
        shutil.copy(fixtures_dir_module / "demo_extracted_food.csv", cfg_dir)
        (cfg_dir / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(cfg_dir / "config.json")]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "audit"])
    def test_bad_target_is_reported_before_the_records_are_read(
        self, command, fixtures_dir_module, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(pipeline, "parse_records", _refuse_ingest)
        data = tmp_path / "records.csv"
        data.write_bytes(BAD_RECORD_FILES["undecodable"][0])
        target = tmp_path / "target.csv"
        target.write_text("month,value_usd_millions\n2015-04,1.0\n", encoding="utf-8")
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw.update(data_file=str(data), output_dir=str(tmp_path / "o"))
        raw["audits"][0]["target_file"] = str(target)
        (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        assert main([command, "--config", str(tmp_path / "config.json")]) == 3
        assert capsys.readouterr().err == (
            "estimation error: [audit:food_extracted] series spans 2015-04..2015-04 "
            "but the fit window is 2015-04..2019-12\n"
        )

    def test_estimation_failure_exit_three(self, tmp_path, capsys):
        # chapter 02 is zero in every month of the 2015-04..2017-07 pre window
        # but 2016-01, so the log transform leaves that segment one month: a
        # failure only the data can cause
        _write_chapter_02(tmp_path / "records.csv", [0 if k < 28 and k != 9 else 50 for k in range(57)])
        config = {
            "data_file": "records.csv",
            "series": [{"label": "anova_food", "category_set": "anova_food"}],
            "vintages": [{"label": "latest"}],
            "transforms": ["log"],
            "trend_break": {"cutoff_month": "2017-08"},
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the log transform drops the zeros
            assert main(["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "estimation error" in err and "got 1 pre" in err
        assert "anova_food" in err  # stage context names the series

    def test_ingest_roundtrip(self, fixtures_dir_module, tmp_path):
        out = tmp_path / "series.csv"
        code = main(
            [
                "ingest",
                "--data",
                str(fixtures_dir_module / "demo_records.csv"),
                "--vintage",
                "2020-10-01T00:00:00Z",
                "--series",
                "medicines",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        series = read_series_csv(out)
        assert len(series) > 100
        assert not np.isnan(series.values).any()
        # the span is that of the records kept at the vintage; the values are
        # the per-record reference's, bit for bit
        records = parse_records(fixtures_dir_module / "demo_records.csv")
        cutoff = np.datetime64("2020-10-01T00:00:00")
        kept_months = sorted({r.period.item() for r in records if r.first_submitted_at <= cutoff})
        span = (kept_months[0], kept_months[-1])
        assert (series.start_month, series.end_month) == span
        medicines = BUILTIN_CATEGORY_SETS["medicines"]
        want, duplicates = reference_series(records, medicines, span, ts(2020, 10, 1))
        assert series.values.tolist() == list(want)
        assert duplicates == 0

    @pytest.mark.parametrize("command", ["ingest", "run"])
    def test_timestamp_leaving_the_calendar_is_a_row_error(
        self, command, fixtures_dir_module, tmp_path, capsys
    ):
        # 00:00 at +01:00 on 0001-01-01 is in year 0 in UTC
        data = tmp_path / "records.csv"
        data.write_text(
            "period,reporter_code,partner_code,hs2_code,value_usd,first_submitted_at,last_updated_at\n"
            "201504,VEN,DEU,02,1,2015-01-01T00:00:00Z,2015-01-01T00:00:00Z\n"
            "201504,VEN,USA,02,1,0001-01-01T00:00:00+01:00,2015-01-01T00:00:00Z\n",
            encoding="utf-8",
        )
        assert main(_records_argv(command, data, fixtures_dir_module, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "row 2, field 'first_submitted_at': timestamp leaves years 1-9999" in err

    def test_non_ascii_hs2_digits_are_a_row_error(self, tmp_path, capsys):
        # str.isdigit reads Arabic-Indic digits, so this record used to fall out of every series
        data = tmp_path / "records.csv"
        data.write_text(
            "period,reporter_code,partner_code,hs2_code,value_usd,first_submitted_at,last_updated_at\n"
            "201504,VEN,DEU,\u0660\u0662,5000000,2015-01-01T00:00:00Z,2015-01-01T00:00:00Z\n"
            "201504,VEN,USA,02,1000000,2015-01-01T00:00:00Z,2015-01-01T00:00:00Z\n",
            encoding="utf-8",
        )
        argv = ["ingest", "--data", str(data), "--series", "anova_food"]
        assert main([*argv, "--out", str(tmp_path / "series.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "row 1, field 'hs2_code': must be a zero-padded code in 01..99" in err

    @pytest.mark.parametrize("command", ["ingest", "run"])
    @pytest.mark.parametrize("case", sorted(BAD_RECORD_FILES))
    def test_unreadable_records_file_is_a_data_error(
        self, case, command, fixtures_dir_module, tmp_path, capsys
    ):
        body, message = BAD_RECORD_FILES[case]
        data = tmp_path / "records.csv"
        data.write_bytes(body)
        assert main(_records_argv(command, data, fixtures_dir_module, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert f"{data}: {message}\n" in err

    @pytest.mark.parametrize("case", sorted(BAD_SERIES_FILES))
    def test_unreadable_series_file_is_a_data_error(self, case, fixtures_dir_module, tmp_path, capsys):
        body, message = BAD_SERIES_FILES[case]
        target = tmp_path / "target.csv"
        target.write_bytes(body)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(_audit_argv(target, fixtures_dir_module, tmp_path)) == 2
        assert capsys.readouterr().err == f"data error: [audit:food_extracted] {target}: {message}\n"

    def test_ingest_checks_the_vintage_before_reading_the_data(self, tmp_path, capsys):
        data = tmp_path / "records.csv"
        data.write_text("period,reporter_code\n201504,VEN\n", encoding="utf-8")
        argv = ["ingest", "--data", str(data), "--vintage", "garbage"]
        assert main(argv + ["--series", "anova_food", "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err == "config error: invalid ISO-8601 timestamp: 'garbage'\n"

    @pytest.mark.parametrize(
        "body, message",
        [
            (None, "cannot read config: "),
            (b'{"data_file": ', "config is not valid JSON: "),
            (b'{"data_file": "\xff"}', "config is not valid JSON: "),
        ],
        ids=["missing", "truncated", "not-utf8"],
    )
    def test_unreadable_config_exit_one(self, body, message, tmp_path, capsys):
        config = tmp_path / "config.json"
        if body is not None:
            config.write_bytes(body)
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "vintage, code, message",
        [
            ("0001-01-01T00:00:00+01:00", 1, "config error: timestamp leaves years 1-9999"),
            # a year below 1000 is formatted with four digits and parses back
            ("0001-01-01T05:00:00Z", 2, "data error: no records remain"),
        ],
    )
    def test_ingest_vintage_at_the_calendar_edge(
        self, vintage, code, message, fixtures_dir_module, tmp_path, capsys
    ):
        argv = ["ingest", "--data", str(fixtures_dir_module / "demo_records.csv")]
        argv += ["--vintage", vintage, "--series", "medicines", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(message)

    def test_cli_import_leaves_out_scipy_stats(self):
        # scipy.stats costs most of a second to import; p-values need only scipy.special
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", "import sys, breaklens.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_ingest_unknown_set_exit_one(self, fixtures_dir_module, tmp_path):
        code = main(
            [
                "ingest",
                "--data",
                str(fixtures_dir_module / "demo_records.csv"),
                "--series",
                "unknown",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_audit_command(self, fixtures_dir_module, tmp_path, capsys, monkeypatch):
        # copy fixture tree so audit writes its output under tmp
        import shutil

        for name in ("demo_config.json", "demo_records.csv", "demo_extracted_food.csv"):
            shutil.copy(fixtures_dir_module / name, tmp_path / name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["audit", "--config", str(tmp_path / "demo_config.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Correlation" in out
        assert (tmp_path / "out" / "audit.csv").exists()

    def test_audit_command_without_audits(self, fixtures_dir_module, tmp_path, capsys):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["data_file"] = str(fixtures_dir_module / raw["data_file"])
        raw["audits"] = []
        (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["audit", "--config", str(tmp_path / "config.json")])
        assert code == 0
        assert capsys.readouterr().out == "no audits configured\n"
        assert not (tmp_path / "out" / "audit.csv").exists()


    def test_audit_aggregates_only_the_audited_cell(self, fixtures_dir_module, tmp_path, monkeypatch, capsys):
        aggregate, vintage = mock.Mock(wraps=aggregate_series), mock.Mock(wraps=apply_vintage)
        monkeypatch.setattr(pipeline, "aggregate_series", aggregate)
        monkeypatch.setattr(pipeline, "apply_vintage", vintage)
        argv = _audit_argv(fixtures_dir_module / "demo_extracted_food.csv", fixtures_dir_module, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 0
        # the demo audits anova_food at the 2020-10-01 vintage; the vintage
        # search filters and aggregates through its own module's names
        assert [call.args[1].name for call in aggregate.call_args_list] == ["anova_food"]
        assert [call.args[1] for call in vintage.call_args_list] == [VintagePolicy(ts(2020, 10, 1))]

    def test_audit_without_audits_reads_no_records(self, fixtures_dir_module, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(pipeline, "parse_records", _refuse_ingest)
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw.update(data_file=str(fixtures_dir_module / raw["data_file"]), audits=[])
        (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        assert main(["audit", "--config", str(tmp_path / "config.json")]) == 0
        assert capsys.readouterr().out == "no audits configured\n"

    def test_audit_writes_the_audit_csv_of_the_run_bundle(self, demo_run, fixtures_dir_module, tmp_path, capsys):
        argv = _audit_argv(fixtures_dir_module / "demo_extracted_food.csv", fixtures_dir_module, tmp_path)
        assert main(argv) == 0
        *_, out_path = demo_run
        assert (tmp_path / "o" / "audit.csv").read_bytes() == (out_path / "audit.csv").read_bytes()

    @pytest.mark.parametrize(
        "command, out, error",
        [
            ("run", "afile", "[Errno 17] File exists: 'afile'"),
            ("run", "afile/sub", "[Errno 20] Not a directory: 'afile/sub'"),
            ("audit", "afile", "[Errno 17] File exists: 'afile'"),
        ],
        ids=["run-file", "run-under-a-file", "audit-file"],
    )
    def test_an_output_directory_that_cannot_be_made_ends_the_run_before_any_input_is_read(
        self, command, out, error, fixtures_dir_module, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(pipeline, "parse_records", _refuse_ingest)
        monkeypatch.setattr(pipeline, "read_series_csv", _refuse_ingest)
        monkeypatch.chdir(tmp_path)  # the config's directory, ".", names the output directory
        (tmp_path / "afile").touch()
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["data_file"] = str(fixtures_dir_module / raw["data_file"])
        raw["audits"][0]["target_file"] = str(fixtures_dir_module / raw["audits"][0]["target_file"])
        raw["output_dir"] = out  # audit writes under output_dir; run under --out
        Path("config.json").write_text(json.dumps(raw), encoding="utf-8")
        argv = [command, "--config", "config.json", *(["--out", out] if command == "run" else [])]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"data error: [write:{out}] {error}\n"

    @pytest.mark.parametrize("command", ["run", "audit"])
    def test_a_config_error_makes_no_output_directory(self, command, fixtures_dir_module, tmp_path, capsys):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
        raw["data_file"] = str(fixtures_dir_module / raw["data_file"])
        raw["trend_break"]["pre_window"] = 2
        raw["output_dir"] = str(tmp_path / "o")
        (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        assert main([command, "--config", str(tmp_path / "config.json")]) == 1
        assert capsys.readouterr().err.startswith("config error: trend_break.pre_window: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "out, error",
        [
            ("adir", "[Errno 21] Is a directory: 'adir'"),
            ("nodir/x.csv", "[Errno 2] No such file or directory: 'nodir/x.csv'"),
            ("new.csv/", "[Errno 21] Is a directory: 'new.csv/'"),
            ("adir/", "[Errno 21] Is a directory: 'adir/'"),
            ("nodir/x.csv/", "[Errno 2] No such file or directory: 'nodir/x.csv/'"),
            ("new.csv/.", "[Errno 2] No such file or directory: 'new.csv/.'"),
            ("afile/.", "[Errno 20] Not a directory: 'afile/.'"),
            ("nodir/./", "[Errno 2] No such file or directory: 'nodir/./'"),
        ],
        ids=["directory", "missing-directory", "trailing-separator", "directory-trailing-separator",
             "missing-directory-trailing-separator", "missing-directory-dot", "file-dot",
             "missing-directory-dot-trailing-separator"],
    )
    def test_ingest_checks_its_output_path_before_the_parse(
        self, out, error, fixtures_dir_module, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "parse_records", _refuse_ingest)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").touch()
        argv = ["ingest", "--data", str(fixtures_dir_module / "demo_records.csv"), "--series", "medicines"]
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err == f"data error: {error}\n"
        assert sorted(os.listdir(tmp_path)) == ["adir", "afile"] and os.listdir(tmp_path / "adir") == []
        assert (tmp_path / "afile").read_bytes() == b""

    @pytest.mark.parametrize("vintage", [None, "2020-10-01T00:00:00Z"])
    def test_ingest_of_a_header_only_file_names_the_file(self, vintage, tmp_path, capsys):
        data = tmp_path / "records.csv"
        data.write_bytes(_HEADER + b"\n")
        argv = ["ingest", "--data", str(data), "--series", "medicines", "--out", str(tmp_path / "s.csv")]
        assert main(argv + ([] if vintage is None else ["--vintage", vintage])) == 2
        assert capsys.readouterr().err == f"data error: {data}: no data rows\n"

    @pytest.mark.parametrize(
        "command, flag", [("run", "--config"), ("run", "--out"), ("audit", "--config"), ("ingest", "--data"), ("ingest", "--out")]
    )
    @pytest.mark.parametrize("name", ["a\0b", "a\ud800b", ""], ids=["nul", "lone-surrogate", "empty"])
    def test_path_flag_that_no_file_can_have(self, command, flag, name, fixtures_dir_module, tmp_path, monkeypatch, capsys):
        argv = {
            "run": ["run", "--config", str(fixtures_dir_module / "demo_config.json"), "--out", str(tmp_path / "o")],
            "audit": ["audit", "--config", str(fixtures_dir_module / "demo_config.json")],
            "ingest": ["ingest", "--data", str(fixtures_dir_module / "demo_records.csv"), "--series", "medicines",
                       "--out", str(tmp_path / "s.csv")],
        }[command]
        argv[argv.index(flag) + 1] = name
        # nothing is read: the flag is refused as the arguments are parsed
        monkeypatch.setattr(cli, "load_config", _refuse_ingest)
        monkeypatch.setattr(cli, "parse_records", _refuse_ingest)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: argument {flag}: no file can have the name {name!r}\n"

    def test_path_flags_take_a_byte_the_shell_passed_as_a_surrogate_escape(self, fixtures_dir_module, tmp_path):
        data, out = tmp_path / "records\udcff.csv", tmp_path / "series\udcff.csv"
        shutil.copy(fixtures_dir_module / "demo_records.csv", data)
        # a str stdout, as under a locale whose stdout writes surrogate escapes back as bytes
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["ingest", "--data", str(data), "--series", "medicines", "--out", str(out)]) == 0
        assert stdout.getvalue() == f"wrote 108 months to {out}\n"
        assert os.fsencode(out).endswith(b"series\xff.csv") and out.exists()

    @pytest.mark.parametrize("command", ["run", "audit", "ingest"])
    @pytest.mark.parametrize("stdout_errors", ["strict", "surrogateescape"])
    def test_a_written_path_is_escaped_only_where_stdout_cannot_encode_it(
        self, command, stdout_errors, fixtures_dir_module, tmp_path
    ):
        # the directory of the config names audit.csv's path
        base = tmp_path / "in\udcff"
        base.mkdir()
        for name in ("demo_config.json", "demo_records.csv", "demo_extracted_food.csv"):
            shutil.copy(fixtures_dir_module / name, base)
        config, out = base / "demo_config.json", tmp_path / "out\udcff"
        argv, line = {
            "run": (["run", "--config", config, "--out", out], f"wrote results to {out}"),
            "audit": (["audit", "--config", config], f"wrote {base / 'out' / 'audit.csv'}"),
            "ingest": (["ingest", "--data", base / "demo_records.csv", "--series", "medicines", "--out", out],
                       f"wrote 108 months to {out}"),
        }[command]
        # a strict UTF-8 stdout cannot write the byte 0xff that the surrogate escapes
        stdout = _cli_stdout(argv, f"utf-8:{stdout_errors}")
        if stdout_errors == "strict":
            assert stdout.endswith(line.replace("\udcff", "\\udcff").encode() + b"\n")
        else:  # the byte itself, as before
            assert stdout.endswith(os.fsencode(line) + b"\n")

    def test_a_label_that_stdout_cannot_encode_is_escaped(self, fixtures_dir_module, tmp_path):
        raw = json.loads((fixtures_dir_module / "demo_config.json").read_text(encoding="utf-8"))
        raw["data_file"] = str(fixtures_dir_module / raw["data_file"])
        raw["audits"][0]["target_file"] = str(fixtures_dir_module / raw["audits"][0]["target_file"])
        raw["audits"][0]["label"] = "f\u00f6\u00f6d"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        stdout = _cli_stdout(["audit", "--config", config], "ascii")
        assert b"\nf\\xf6\\xf6d (series anova_food, vintage 2020-10-01)\n" in stdout

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["run"], "the following arguments are required: --config"),
            (["ingest", "--data", "r.csv", "--series", "-x", "--out", "s.csv"], "argument --series: expected one argument"),
            (["audit", "--config", "c.json", "--out", "o"], "unrecognized arguments: --out o"),
        ],
    )
    def test_usage_error_is_a_config_error(self, argv, message, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


class IngestStarted(Exception):
    pass


def _refuse_ingest(*args, **kwargs):
    raise IngestStarted("the records file was opened")


# (JSON path, bad value, the path the error line must name)
BAD_INPUTS = [
    ("trend_break.pre_window", 2, "trend_break.pre_window"),
    ("trend_break.pre_window", "28", "trend_break.pre_window"),
    ("trend_break.se_type", "hc1", "trend_break.se_type"),
    ("trend_break.hac_lags", -1, "trend_break.hac_lags"),
    ("trend_break.horizon", -5, "trend_break.horizon"),
    ("trend_break.treat_cutoff_as_post", "no", "trend_break.treat_cutoff_as_post"),
    ("trend_break.cutoff_month", 201708, "trend_break.cutoff_month"),
    ("rdd.kernel", "epanechnikov", "rdd.kernel"),
    ("rdd.estimands", ["jump"], "rdd.estimands"),
    ("rdd.bandwidth", -3, "rdd.bandwidth"),
    ("rdd.pilot_factor", 0.5, "rdd.pilot_factor"),
    ("rdd.poly_order_level", -1, "rdd.poly_order_level"),
    ("rdd.bandwidth_sample", ["2012-01"], "rdd.bandwidth_sample"),
    ("audits[0].metric", "mae", "audits[0].metric"),
    (
        "audits[0].search",
        {"start": "2020-10-01", "end": "2020-10-05", "step_days": 7},
        "audits[0].search",
    ),
    ("audits[0].search.end", "2020-09-01", "audits[0].search"),
    ("audits[0].search.step_days", 0, "audits[0].search.step_days"),
    ("audits[0].search.step_days", -7, "audits[0].search.step_days"),
    ("panels", [["levels"]], "panels[0]"),
    ("vintages[0].cutoff", 5, "vintages[0].cutoff"),
    ("seed", "abc", "seed"),
    ("transforms", ["log", "log"], "transforms"),
    ("rdd.estimands", ["level", "level"], "rdd.estimands"),
    ("trend_break.pre_windw", 28, "trend_break.pre_windw"),
    ("series[1].label", "anova_food", "series"),
    ("trend_break.pre_window", 30000, "trend_break"),
    ("category_sets", {"odd": ["00"]}, "category_sets.odd"),
    (
        "audits",
        [{"label": "twice", "target_file": "t.csv", "series": "anova_food", "vintage": "latest"}] * 2,
        "audits",
    ),
    ("panels", [["log", "latest"], ["log", "latest"]], "panels"),
    ("category_sets", {"pair": ["02", "02"]}, "category_sets.pair"),
    ("series[2].label", "full/food", "figures"),  # its figures are full_food's
    ("series[2].label", "x" * 300, "figures"),  # no file name holds more than 255 bytes
    # no config string holds NUL or a lone surrogate, which UTF-8 cannot encode
    ("series[2].label", "a\u0000b", "series[2].label"),
    ("series[2].label", "a\ud800b", "series[2].label"),
    ("vintages[1].label", "a\ud800b", "vintages[1].label"),
    ("audits[0].label", "a\ud800b", "audits[0].label"),
    ("output_dir", "a\ud800b", "output_dir"),
    ("output_dir", "a\u0000b", "output_dir"),
    ("category_sets", {"a\ud800b": ["02"]}, "category_sets"),
    # too narrow for whole months: the level fit's left side has 0 and 1 weighted
    # months at h = 1 and 2, the slope fit's 2 of 3 at h = 2.5
    ("rdd.bandwidth", 1, "rdd.bandwidth"),
    ("rdd.bandwidth", 2, "rdd.bandwidth"),
    ("rdd.bandwidth", 2.5, "rdd.bandwidth"),
    # the level fit's order-3 curvature fit needs 5 months on each side of the
    # 2017-08 cutoff: the sample leaves 2 before it, 3 from it on, and none
    ("rdd.bandwidth_sample", ["2017-06", "2020-12"], "rdd.bandwidth_sample"),
    ("rdd.bandwidth_sample", ["2012-01", "2017-10"], "rdd.bandwidth_sample"),
    ("rdd.bandwidth_sample", ["2012-01", "2016-12"], "rdd.bandwidth_sample"),
    # the curvature fit of order p + 2 is rank deficient on the sample's months
    ("rdd.poly_order_level", 30, "rdd.bandwidth_sample"),
    ("rdd.poly_order_slope", 40, "rdd.bandwidth_sample"),
]


@pytest.mark.parametrize(
    "path, value, named", BAD_INPUTS, ids=[f"{p}={json.dumps(v)}" for p, v, _ in BAD_INPUTS]
)
def test_bad_config_is_rejected_before_ingest(
    path, value, named, fixtures_dir_module, tmp_path, monkeypatch, capsys
):
    # ingest raising proves no check waits for the data (and ends the step_days
    # cases that would otherwise loop forever building the candidate grid)
    monkeypatch.setattr(pipeline, "parse_records", _refuse_ingest)
    raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
    raw["data_file"] = str(fixtures_dir_module / raw["data_file"])
    raw["audits"][0]["target_file"] = str(fixtures_dir_module / raw["audits"][0]["target_file"])
    set_path(raw, path, value)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")

    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("config error:")]
    assert len(lines) == 1 and f" {named}: " in lines[0], err


@pytest.mark.parametrize(
    "edit",
    [
        # the two cells write figures/a\nb_levels_log_v.csv
        {
            "series": [{"label": label, "category_set": "anova_food"} for label in ("a\nb_levels", "a\nb")],
            "vintages": [{"label": "v"}, {"label": "log_v"}],
            "panels": None,
            "rdd": None,
            "audits": [],
        },
        {"tren\nd": 1},
        {"category_sets": {"a\nb": ["0x"]}},
        {"data_file": "a\nb.csv"},
    ],
    ids=["colliding_labels", "unknown_key", "category_set_key", "missing_file"],
)
def test_config_text_with_a_newline_gives_one_error_line(edit, fixtures_dir_module, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "parse_records", _refuse_ingest)
    raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
    raw["data_file"] = str(fixtures_dir_module / raw["data_file"])
    raw["audits"][0]["target_file"] = str(fixtures_dir_module / raw["audits"][0]["target_file"])
    raw.update(edit)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")

    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ") and "\\n" in lines[0], lines


@pytest.mark.parametrize(
    "kernel, bandwidth, accepted",
    [
        ("triangular", 2, False),  # |t| < h: only t = -1
        ("triangular", 2.01, True),  # t = -1, -2 at h; t = -1..-3 at b = 3.015
        ("uniform", 2, True),  # |t| <= h: t = -1, -2 at h; t = -1..-3 at b = 3
        ("uniform", 1.99, False),
    ],
)
def test_manual_bandwidth_boundary_for_the_level_fit(kernel, bandwidth, accepted, fixtures_dir_module):
    raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
    raw["rdd"].update(estimands=["level"], kernel=kernel, bandwidth=bandwidth)
    config = RunConfig.from_dict(raw)
    if accepted:
        config.validate(fixtures_dir_module)
    else:
        with pytest.raises(ConfigError, match=r"^rdd\.bandwidth: level fit: left side: only 1 observations "):
            config.validate(fixtures_dir_module)


@pytest.mark.parametrize(
    "edit, message",
    [
        # h = 10 gives the level fit p + 1 = 2 weighted months before the
        # cutoff, but the pilot width b = 15 needs p + 2 = 3 and the sample
        # holds only 2017-06 and 2017-07 there
        (
            {"bandwidth_sample": ["2017-06", "2020-12"], "bandwidth": 10},
            "rdd.bandwidth: level fit: left pilot (b=15): only 2 observations "
            "carry positive weight inside h=15, need >= 3",
        ),
        # the MSE-optimal width's variance constant comes out negative
        (
            {"kernel": "uniform", "poly_order_level": 16},
            "rdd.bandwidth_sample: level fit: order-16 uniform kernel constants are lost to rounding",
        ),
    ],
    ids=["sample_short_for_the_pilot", "kernel_constants_lost"],
)
def test_rdd_settings_that_no_series_can_fit(edit, message, fixtures_dir_module, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "parse_records", _refuse_ingest)
    raw = json.loads((fixtures_dir_module / "demo_config.json").read_text())
    raw["data_file"] = str(fixtures_dir_module / raw["data_file"])
    raw["audits"][0]["target_file"] = str(fixtures_dir_module / raw["audits"][0]["target_file"])
    raw["rdd"].update(edit)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")

    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {message}"), lines
