"""breaklens benchmark: one workload per call, metrics and oracle checks.

    python3 bench/run.py --workload cli_run_x100 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from anywhere; the checkout is the directory above ``bench/``. Inputs
are generated from ``--seed`` into ``.bench_work/`` (removed afterwards).
Set-up is timed in fresh interpreters, then the workload runs in a closed
loop, one client, for ``--seconds``. Every operation's output is checked
against the oracles in ``oracles.py``; a failed or wrong operation counts
in ``failed``. With ``--trace 0`` the end-to-end metrics are reported, with
``--trace 1`` the per-layer metrics of a traced run (see README.md). The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import make_scaled  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

DEMO_CONFIG = ROOT / "fixtures" / "demo_config.json"
DEMO_TARGET = ROOT / "fixtures" / "demo_extracted_food.csv"
REQUIRED = (ROOT / "src" / "breaklens" / "__init__.py", make_scaled.FIXTURE, DEMO_CONFIG, DEMO_TARGET)

WORKLOADS = ("cli_run_x100", "estimator_mc")
#: cli_run_x100 runs on this many seeded copies of the demo records.
SCALE = 100
#: Fresh-interpreter set-up measurements per run (after one untimed warm-up).
SETUP_REPEATS = 3
#: A run is abandoned (its open operation killed and counted failed) after this long.
RUN_LIMIT_S = 160.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_mean_ms": "ms",
    "peak_rss_mb": "MB",
}
#: What one operation of each workload processes, for the printed throughput.
ITEMS = {"cli_run_x100": "records", "estimator_mc": "replications"}
#: Estimation layers, for the "estimation is under 1% of cli_run_x100" check.
ESTIMATION_LAYERS = tuple(
    name for name in tracer.LAYERS if name.split(".")[0] in ("trend_break", "ols", "rdd_local_poly")
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in reporting order."""
    names = []
    for layer, counters in tracer.LAYERS.items():
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
        names += [(f"{layer}.{c}", "count") for c in counters]
        if layer == "trade_ingest.apply_vintage":
            names.append((f"{layer}.kept_ratio", "ratio"))
        if layer == "trade_ingest.aggregate_series":
            names.append((f"{layer}.scans_per_row", "ratio"))
    return names + [("trace.overhead_ratio", "ratio"), ("repo.src_lines", "lines")]


# -- child processes ------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, cwd, deadline: float, log) -> tuple[int | None, float, object]:
    """Run ``cmd`` to completion; return (exit code or None if killed, wall s, rusage).

    The child is reaped with ``os.wait4`` so its own peak RSS is available;
    it is killed if it outlives ``deadline`` (perf_counter).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=_child_env(), stdout=log, stderr=log)
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if not killed and time.perf_counter() > deadline:
            proc.kill()
            killed = True
        time.sleep(0.002)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if killed else proc.returncode), wall, usage


def measure_setup(name: str) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters (after one warm-up)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--setup-only"]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            cmd, env=_child_env(), capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# -- inputs and oracles -----------------------------------------------------------


def _cutoff_string(value: str | None) -> str | None:
    if value is None:
        return None
    return value if value.endswith("Z") else value + "T00:00:00Z"


def prepare_cli(seed: int, work: Path) -> dict:
    """Write the CLI workload's inputs into ``work`` and compute what the oracles expect."""
    inputs: dict = {"target": work / "target.csv", "data": work / "records.csv"}
    shutil.copyfile(DEMO_TARGET, inputs["target"])
    inputs["rows"] = make_scaled.write_scaled(inputs["data"], SCALE, seed)
    records = oracles.Records(inputs["data"])
    config = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    config["data_file"] = inputs["data"].name
    for audit in config["audits"]:
        audit["target_file"] = inputs["target"].name
    inputs["config"] = work / "config.json"
    inputs["config"].write_text(json.dumps(config), encoding="utf-8")

    inputs.update(expected_cli(config, records, inputs["target"]))
    return inputs


def expected_cli(config: dict, records: oracles.Records, target) -> dict:
    """Oracle levels trend coefficients per (series, vintage) and search distances per audit."""
    trend = config["trend_break"]
    if not trend.get("treat_cutoff_as_post", True):
        raise ValueError("the trend oracle assumes the cutoff month is post")
    cutoff = oracles.month_index(trend["cutoff_month"])
    window = (-trend["pre_window"], trend["post_window"] - 1)
    sets = {**oracles.CATEGORY_SETS, **{k: frozenset(v) for k, v in config["category_sets"].items()}}
    expected = {}
    for s in config["series"]:
        subset = records.subset(sets[s["category_set"]], cutoff + window[0], cutoff + window[1])
        for v in config["vintages"]:
            y = oracles.aggregate(subset, window[1] - window[0] + 1, _cutoff_string(v["cutoff"]))
            expected[(s["label"], v["label"])] = (oracles.trend_coefficients(y, window), max(y))
    searches = {}
    for audit in config["audits"]:
        grid = audit.get("search")
        if grid is None:
            continue
        day, end = date.fromisoformat(grid["start"]), date.fromisoformat(grid["end"])
        cutoffs = []
        while day <= end:
            cutoffs.append(day.isoformat() + "T00:00:00Z")
            day += timedelta(days=grid["step_days"])
        category = next(s["category_set"] for s in config["series"] if s["label"] == audit["series"])
        searches[audit["label"]] = (
            cutoffs, oracles.vintage_distances(records, sets[category], target, cutoffs)
        )
    return {"trend": expected, "searches": searches}


def check_cli(results: dict, inputs: dict) -> list[str]:
    problems = []
    seen = set()
    for rec in results["trend_break"]:
        if rec["transform"] != "levels":
            continue
        key = (rec["series"], rec["vintage"])
        seen.add(key)
        want, scale = inputs["trend"][key]
        got = [rec["coef"][a] for a in ("alpha0", "alpha1", "alpha2", "alpha3")]
        if not oracles.coefficients_close(got, want, scale):
            problems.append(f"levels trend {key}: {got} vs oracle {list(want)}")
    if seen != set(inputs["trend"]):
        problems.append(f"levels trend cells {sorted(seen)} vs expected {sorted(inputs['trend'])}")
    audits = {a["label"]: a for a in results["audit"]}
    for label, (cutoffs, distances) in inputs["searches"].items():
        search = (audits.get(label) or {}).get("vintage_search")
        if not search:
            problems.append(f"audit {label}: no vintage search in results")
            continue
        problems += oracles.check_search(cutoffs, distances, search["candidates"], search["best"])
    return problems


def check_mc(check: dict) -> list[str]:
    problems = []
    y = np.asarray(check["y"])
    t = np.arange(worker.MC_T[0], worker.MC_T[1] + 1)
    window = (-worker.MC_PRE, worker.MC_POST - 1)
    lo = window[0] - worker.MC_T[0]
    want = oracles.trend_coefficients(y[lo : lo + window[1] - window[0] + 1], window)
    for got in check["trend"]:
        if not oracles.coefficients_close(got, want, float(np.max(np.abs(y)))):
            problems.append(f"trend coefficients {got} vs oracle {list(want)}")
    for rd in check["rd"]:
        nu = {"level": 0, "slope": 1}[rd["estimand"]]
        tau = oracles.rd_tau(t, y, rd["h"], rd["p"], nu)
        if not oracles.tau_close(rd["tau"], tau, y):
            problems.append(f"rd {rd['estimand']} tau {rd['tau']} vs oracle {tau} at h={rd['h']}")
    return problems


# -- workloads ---------------------------------------------------------------------------------


def run_cli(inputs: dict, work: Path, seconds: float, trace: bool, started: float) -> tuple[list, list]:
    """Closed loop of ``breaklens run`` subprocesses; trace mode alternates traced runs."""
    ops, spans = [], []
    deadline = started + RUN_LIMIT_S
    stop = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < stop or (trace and k < 2):
        traced = trace and k % 2 == 1
        out = work / f"out{k}"
        args = ["run", "--config", str(inputs["config"]), "--out", str(out)]
        if traced:
            span_file = work / f"spans{k}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), "--spans", str(span_file), "--", *args]
        else:
            cmd = [sys.executable, "-m", "breaklens.cli", *args]
        with open(work / f"log{k}.txt", "wb") as log:
            code, wall, usage = run_child(cmd, work, deadline, log)
        op = {"traced": traced, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
              "items": inputs["rows"]}
        if code != 0:
            tail = (work / f"log{k}.txt").read_text(errors="replace")[-400:]
            op["problems"] = [f"exit code {code}: {tail}"]
        else:
            try:
                results = json.loads((out / "results.json").read_text(encoding="utf-8"))
                op["problems"] = check_cli(results, inputs)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                op["problems"] = [f"unreadable results.json: {type(exc).__name__}: {exc}"]
            if traced:
                spans.append(json.loads(span_file.read_text(encoding="utf-8")))
        shutil.rmtree(out, ignore_errors=True)
        ops.append(op)
        k += 1
        if time.perf_counter() > deadline:
            break
    return ops, spans


def run_mc(seed: int, work: Path, seconds: float, trace: bool, started: float) -> tuple[list, list]:
    """One worker process runs the closed loop; its peak RSS is read at exit."""
    out, span_file = work / "worker.json", work / "worker_spans.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", "estimator_mc",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", str(out), "--spans", str(span_file)]
    with open(work / "worker_log.txt", "wb") as log:
        code, _, usage = run_child(cmd, work, started + RUN_LIMIT_S, log)
    if code != 0:
        tail = (work / "worker_log.txt").read_text(errors="replace")[-400:]
        return [{"traced": False, "problems": [f"worker exit code {code}: {tail}"]}], []
    ops = json.loads(out.read_text(encoding="utf-8"))["ops"]
    for op in ops:
        op["rss_mb"] = usage.ru_maxrss / 1024.0
        if not op.pop("ok"):
            op["problems"] = [op.pop("error")]
        elif "check" in op:
            op["problems"] = check_mc(op.pop("check"))
        else:
            op["problems"] = []
    spans = [json.loads(span_file.read_text(encoding="utf-8"))] if trace else []
    return ops, spans


# -- metrics -----------------------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(q, value): the highest of p99..p50 with at least ten samples above it.

    Linear interpolation between order statistics, so q = 0.5 is the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = min(0.99, max(0.5, 1.0 - 10.0 / n))
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean after dropping the lowest and highest ``cut`` share (rounded down) of values.

    Used instead of the median because a shared host alternates between two
    speeds for seconds at a time: the median of a run jumps between the two
    modes as their mix changes, the trimmed mean moves with the mix.
    """
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k : len(ordered) - k])


def end_to_end(ops: list, setup: list[float]) -> dict:
    good = [op for op in ops if not op["problems"]]
    walls = [op["wall_s"] for op in good]
    return {
        "setup_s": statistics.median(setup),
        "op_mean_ms": trimmed_mean(walls) * 1e3,
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in good),
    }


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )


def per_layer(ops: list, span_files: list) -> tuple[dict, list[str], float]:
    """Per-layer metrics per traced operation, the absent layers and the mean traced wall."""
    traced = [op["wall_s"] for op in ops if op["traced"] and not op["problems"]]
    plain = [op["wall_s"] for op in ops if not op["traced"] and not op["problems"]]
    absent = sorted({a for f in span_files for a in f["absent"]})
    summary = tracer.summarize([])
    for f in span_files:  # span ids are per process, so summarize each file on its own
        for layer, fields in tracer.summarize(f["spans"]).items():
            for field, value in fields.items():
                summary[layer][field] += value
    n = max(1, len(traced))
    metrics = {}
    for name, _unit in per_layer_names():
        layer, _, field = name.rpartition(".")
        if layer in summary and field in summary[layer]:
            metrics[name] = summary[layer][field] / n
    vintage = summary["trade_ingest.apply_vintage"]
    metrics["trade_ingest.apply_vintage.kept_ratio"] = (
        vintage["rows_kept"] / vintage["rows_in"] if vintage["rows_in"] else 0.0
    )
    parsed = summary["trade_ingest.parse_records"]["rows"]
    scanned = summary["trade_ingest.aggregate_series"]["rows_scanned"]
    metrics["trade_ingest.aggregate_series.scans_per_row"] = scanned / parsed if parsed else 0.0
    metrics["trace.overhead_ratio"] = (
        trimmed_mean(traced) / trimmed_mean(plain) if traced and plain else 0.0
    )
    metrics["repo.src_lines"] = src_lines()
    return metrics, absent, statistics.fmean(traced) if traced else 0.0


def shares(name: str, metrics: dict, wall: float) -> list[str]:
    """Layer self-time shares of the traced operation and the baseline predictions."""
    if not wall:
        return []

    def share(*layers):
        return sum(metrics[f"{layer}.self_s"] for layer in layers) / wall

    parse = share("trade_ingest.parse_records")
    aggregate = share("trade_ingest.apply_vintage", "trade_ingest.aggregate_series")
    estimation = share(*ESTIMATION_LAYERS)
    lines = [f"share parse={parse:.3f} filter+aggregate={aggregate:.3f} estimation={estimation:.4f}"
             f" of the traced operation ({wall:.3f} s)"]
    predictions = {
        "cli_run_x100": [("parse is the majority", parse > 0.5),
                         ("estimation is under 1%", estimation < 0.01)],
    }
    for text, held in predictions.get(name, []):
        lines.append(f"prediction {name}: {text}: {'holds' if held else 'FAILED'}")
    return lines


# -- entry point -------------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        setup = measure_setup(name) if not trace else []
        if name == "cli_run_x100":
            ops, spans = run_cli(prepare_cli(seed, work), work, seconds, trace, started)
        else:
            ops, spans = run_mc(seed, work, seconds, trace, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if op["problems"]]
    notes = [f"{name}: {len(ops)} operations, {len(failed)} failed"]
    notes += [f"  failure: {p}" for op in failed[:5] for p in op["problems"][:2]]
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": {}}
    if len(failed) == len(ops):
        return {**result, "notes": notes}
    if trace:
        values, absent, wall = per_layer(ops, spans)
        notes += shares(name, values, wall)
        notes += [f"absent layer: {a}" for a in absent]
        units = dict(per_layer_names())
    else:
        values = end_to_end(ops, setup)
        walls = [op["wall_s"] for op in ops if not op["problems"]]
        q, tail = tail_percentile(walls)
        items = statistics.fmean(op["items"] for op in ops if not op["problems"])
        notes.append(f"{len(walls)} operations: median {statistics.median(walls) * 1e3:.6g} ms,"
                     f" p{round(q * 100)} {tail * 1e3:.6g} ms,"
                     f" throughput {items / values['op_mean_ms'] * 1e3:.6g} {ITEMS[name]}/s")
        notes.append(f"failed_frac = {len(failed) / len(ops):.4g}")
        units = END_TO_END_UNITS
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return {**result, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="breaklens benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"not a breaklens checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for line in result.pop("notes"):
            print(line)
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        if not result["metrics"]:
            print(f"{name}: every operation failed", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
