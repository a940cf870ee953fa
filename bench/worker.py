"""The estimator_mc workload and the set-up probe, run in a fresh interpreter.

    python3 bench/worker.py --workload estimator_mc --seed 1 --seconds 10 --out res.json
    python3 bench/worker.py --workload cli_run_x100 --setup-only

The clock starts before breaklens is imported, so ``setup_s`` covers the
import (plus ``breaklens.cli`` for ``cli_run_x100``). With ``--setup-only``
the worker prints ``{"setup_s": ...}`` and exits. Otherwise it runs
estimator replications in a closed loop for ``--seconds`` and writes
per-replication timings and the outputs the oracles check to ``--out``.
With ``--trace 1`` it alternates untraced and traced blocks of
replications and writes the traced spans to ``--spans``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CUTOFF = (2017, 8)
#: estimator_mc series: t = -67..40 months around the cutoff (2012-01..2020-12).
MC_T = (-67, 40)
MC_RHO = 0.5
MC_SIGMA = 2.0
#: Quadratic trend a + b t + c t^2, positive over the whole span.
MC_TREND = (100.0, 0.2, 0.005)
#: Trend-break fit window: MC_PRE months before the cutoff, MC_POST from it on.
MC_PRE, MC_POST = 28, 29
#: Every MC_CHECK_EVERY-th replication is sent back for the oracle check.
MC_CHECK_EVERY = 25
#: estimator_mc alternates traced and untraced blocks of this many replications.
MC_TRACE_BLOCK = 20


def _import_breaklens():
    sys.path.insert(0, str(ROOT / "src"))
    import breaklens

    here = Path(breaklens.__file__).resolve()
    if ROOT / "src" not in here.parents:
        raise SystemExit(f"breaklens imported from {here}, not from {ROOT / 'src'}")
    return breaklens


class EstimatorMC:
    """One operation: two trend-break fits and two discontinuity estimates on a fresh series."""

    def __init__(self, bl, seed: int):
        import numpy as np
        from datetime import date

        self.bl = bl
        self.np = np
        self.rng = np.random.default_rng(seed)
        self.t = np.arange(MC_T[0], MC_T[1] + 1, dtype=float)
        a, b, c = MC_TREND
        self.trend = a + b * self.t + c * self.t**2
        cutoff = date(*CUTOFF, 1)
        self.start = date(2012, 1, 1)
        tb, rd = bl.trend_break, bl.rdd_local_poly
        self.trend_specs = [
            tb.TrendBreakSpec(cutoff, pre_window=MC_PRE, post_window=MC_POST, se_type=se)
            for se in ("classical", "newey_west")
        ]
        self.rd_specs = [rd.RddSpec(cutoff_month=cutoff, estimand=e) for e in ("level", "slope")]
        self.reps = 0

    def _series(self):
        np = self.np
        n = len(self.t)
        shocks = self.rng.standard_normal(n) * MC_SIGMA
        noise = np.empty(n)
        noise[0] = shocks[0] / np.sqrt(1.0 - MC_RHO**2)
        for i in range(1, n):
            noise[i] = MC_RHO * noise[i - 1] + shocks[i]
        return (self.trend + noise).tolist()

    def prepare(self):
        bl = self.bl
        y = self._series()
        return y, bl.series.MonthlySeries(self.start, tuple(y), bl.series.SeriesMeta(label="mc"))

    def run(self, series):
        bl = self.bl
        fits = [bl.trend_break.fit_trend_break(series, spec) for spec in self.trend_specs]
        rds = [bl.rdd_local_poly.rd_estimate(series, spec) for spec in self.rd_specs]
        return fits, rds

    def report(self, result, y) -> dict:
        fits, rds = result
        rep = self.reps
        self.reps += 1
        if rep % MC_CHECK_EVERY:
            return {"items": 1}
        return {
            "items": 1,
            "check": {
                "y": y,
                "trend": [list(f.coefficients) for f in fits],
                "rd": [
                    {"estimand": s.estimand, "tau": r.tau, "h": r.h_used, "p": r.poly_order}
                    for s, r in zip(self.rd_specs, rds)
                ],
            },
        }


def _loop(workload: EstimatorMC, seconds: float, tracer):
    """Closed loop until the deadline; with a tracer, alternate untraced/traced blocks."""
    ops = []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or (tracer and k < 2 * MC_TRACE_BLOCK):
        traced = tracer is not None and (k // MC_TRACE_BLOCK) % 2 == 1
        y, series = workload.prepare()
        if traced:
            tracer.op = k
            tracer.install()
        try:
            start = time.perf_counter()
            result = workload.run(series)
            wall = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            op = {"ok": False, "error": f"{type(exc).__name__}: {exc}", "items": 0}
        else:
            op = {"ok": True, "wall_s": wall, **workload.report(result, y)}
        finally:
            if traced:
                tracer.uninstall()
        op["traced"] = traced
        ops.append(op)
        k += 1
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="breaklens estimator workload and set-up probe")
    parser.add_argument("--workload", required=True, choices=("cli_run_x100", "estimator_mc"))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    bl = _import_breaklens()
    if args.workload == "cli_run_x100":
        import breaklens.cli  # noqa: F401 - the CLI's own import is its set-up
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload != "estimator_mc":
        raise SystemExit("cli_run_x100 runs the CLI, not the worker")

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
    ops = _loop(EstimatorMC(bl, args.seed), args.seconds, tracer)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops}, fh)
    if tracer is not None:
        tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
