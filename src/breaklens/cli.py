"""breaklens command line interface.

Subcommands:
  run     execute the full configured pipeline into an output directory
  audit   run only the series-audit stages of a config and print the table
  ingest  parse a records file, apply a vintage cutoff and write one series

Exit codes: 0 success, 1 config validation error, 2 data error,
3 estimation error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, DataError, EstimationError
from .months import parse_timestamp
from .pipeline import RunConfig, load_config, run_audit, run_pipeline
from .series import write_series_csv
from .tables import render_audit_table
from .trade_ingest import (
    BUILTIN_CATEGORY_SETS,
    VintagePolicy,
    aggregate_series,
    apply_vintage,
    parse_records,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breaklens",
        description=(
            "Reconstruct partner-reported import series at historical data "
            "vintages and stress-test trend-break claims around a cutoff."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full pipeline from a config file")
    run_p.add_argument("--config", required=True, help="path to the JSON run config")
    run_p.add_argument("--out", default=None, help="output directory (default: config output_dir)")
    run_p.add_argument("--seed", type=int, default=None, help="seed recorded for simulation oracles")

    audit_p = sub.add_parser("audit", help="run only the audit stages of a config")
    audit_p.add_argument("--config", required=True, help="path to the JSON run config")
    audit_p.add_argument("--seed", type=int, default=None, help="seed recorded for simulation oracles")

    ingest_p = sub.add_parser(
        "ingest", help="aggregate a records file into one monthly series"
    )
    ingest_p.add_argument("--data", required=True, help="trade records CSV")
    ingest_p.add_argument(
        "--vintage",
        default=None,
        help="ISO-8601 cutoff; omit to keep all records (latest data)",
    )
    ingest_p.add_argument(
        "--series",
        required=True,
        help=f"category set name ({', '.join(sorted(BUILTIN_CATEGORY_SETS))})",
    )
    ingest_p.add_argument("--out", required=True, help="output series CSV")
    return parser


def _load(args) -> RunConfig:
    config = load_config(args.config)
    return config if args.seed is None else replace(config, seed=args.seed)


def _cmd_run(args) -> int:
    _, out_path = run_pipeline(_load(args), Path(args.config).parent, out_dir=args.out)
    print(f"wrote results to {out_path}")
    return 0


def _cmd_audit(args) -> int:
    audit_records, out_path = run_audit(_load(args), Path(args.config).parent)
    if not audit_records:
        print("no audits configured")
        return 0
    sys.stdout.write(render_audit_table(audit_records))
    print(f"wrote {out_path / 'audit.csv'}")
    return 0


def _cmd_ingest(args) -> int:
    if args.series not in BUILTIN_CATEGORY_SETS:
        raise ConfigError(
            f"unknown category set {args.series!r}; "
            f"choose from {', '.join(sorted(BUILTIN_CATEGORY_SETS))}"
        )
    category = BUILTIN_CATEGORY_SETS[args.series]
    records = parse_records(args.data)
    cutoff = None
    if args.vintage is not None:
        try:
            cutoff = parse_timestamp(args.vintage)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        records = apply_vintage(records, VintagePolicy(cutoff_instant=cutoff))
    if not records:
        raise DataError("no records remain after the vintage filter")
    months = sorted({r.period for r in records})
    series = aggregate_series(
        records,
        category,
        (months[0], months[-1]),
        vintage_cutoff=cutoff,
        label=args.series,
    )
    write_series_csv(series, args.out)
    print(f"wrote {len(series)} months to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "audit": _cmd_audit, "ingest": _cmd_ingest}
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except EstimationError as e:
        print(f"estimation error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
