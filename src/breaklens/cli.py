"""breaklens command line interface.

Subcommands:
  run     execute the full configured pipeline into an output directory
  audit   run a config's plan without the fits and print the audit table
  ingest  parse a records file, apply a vintage cutoff and write one series

Exit codes: 0 success, 1 config validation or usage error, 2 data error,
3 estimation error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigError, DataError, EstimationError
from .months import parse_timestamp
from .pipeline import load_config, run_pipeline
from .series import write_series_csv
from .tables import render_audit_table
from .trade_ingest import (
    BUILTIN_CATEGORY_SETS,
    VintagePolicy,
    aggregate_series,
    apply_vintage,
    parse_records,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error (exit 1), not argparse's exit 2
        raise ConfigError(message)


def _file_name(value: str) -> str:
    """A path flag's value, if a file can have that name: not empty, no NUL, and text
    the file system encoding writes (as it writes a byte the shell passed as a
    surrogate escape)."""
    try:
        encoded = os.fsencode(value)
    except UnicodeEncodeError:
        encoded = b"\0"
    if not encoded or b"\0" in encoded:
        raise argparse.ArgumentTypeError(f"no file can have the name {value!r}")
    return value


def _write(text: str) -> None:
    """Write ``text`` to stdout, backslash-escaping what stdout cannot encode,
    such as a byte the shell passed as a surrogate escape on a strict stdout."""
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError:
        sys.stdout.write(text.encode(sys.stdout.encoding, "backslashreplace").decode(sys.stdout.encoding))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="breaklens",
        description=(
            "Reconstruct partner-reported import series at historical data "
            "vintages and stress-test trend-break claims around a cutoff."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full pipeline from a config file")
    run_p.add_argument("--config", required=True, type=_file_name, help="path to the JSON run config")
    run_p.add_argument("--out", type=_file_name, help="output directory (default: config output_dir)")

    audit_p = sub.add_parser("audit", help="run only the audit stages of a config")
    audit_p.add_argument("--config", required=True, type=_file_name, help="path to the JSON run config")

    ingest_p = sub.add_parser("ingest", help="aggregate a records file into one monthly series")
    ingest_p.add_argument("--data", required=True, type=_file_name, help="trade records CSV")
    ingest_p.add_argument("--vintage", help="ISO-8601 cutoff; omit to keep all records (latest data)")
    ingest_p.add_argument("--series", required=True, choices=sorted(BUILTIN_CATEGORY_SETS), help="category set name")
    ingest_p.add_argument("--out", required=True, type=_file_name, help="output series CSV")
    return parser


def _cmd_run(args) -> int:
    _, out_path = run_pipeline(load_config(args.config), Path(args.config).parent, out_dir=args.out)
    _write(f"wrote results to {out_path}\n")
    return 0


def _cmd_audit(args) -> int:
    results, out_path = run_pipeline(load_config(args.config), Path(args.config).parent, audit_only=True)
    if not results["audit"]:
        print("no audits configured")
        return 0
    _write(render_audit_table(results["audit"]))
    _write(f"wrote {out_path / 'audit.csv'}\n")
    return 0


def _cmd_ingest(args) -> int:
    category = BUILTIN_CATEGORY_SETS[args.series]
    policy = None
    if args.vintage is not None:
        try:
            policy = VintagePolicy(cutoff_instant=parse_timestamp(args.vintage))
        except ValueError as e:
            raise ConfigError(str(e)) from e
    open(args.out, "ab").close()  # fails as writing would, and leaves an existing file's bytes
    records = parse_records(args.data)
    if len(records) == 0:
        raise DataError(f"{args.data}: no data rows")
    if policy is not None:
        records = apply_vintage(records, policy)
    if len(records) == 0:
        raise DataError("no records remain after the vintage filter")
    span = (records.period.min().item(), records.period.max().item())
    series = aggregate_series(records, category, span, label=args.series)
    write_series_csv(series, args.out)
    _write(f"wrote {len(series)} months to {args.out}\n")
    return 0


def main(argv=None) -> int:
    handlers = {"run": _cmd_run, "audit": _cmd_audit, "ingest": _cmd_ingest}
    try:
        args = build_parser().parse_args(argv)
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
