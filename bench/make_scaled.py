"""Seeded k-fold copies of the demo trade-record fixture.

Copy ``j`` (0-based) of every fixture row gets the partner code suffixed
with ``j``, its value multiplied by a factor drawn from the seed, and its
first-submission time shifted by a whole number of seconds drawn from the
seed. The shift never moves ``first_submitted_at`` past ``last_updated_at``.
The same (fixture, k, seed) always gives identical bytes.

    python3 bench/make_scaled.py --k 100 --seed 1 --out records_x100.csv
"""

from __future__ import annotations

import argparse
import calendar
import csv
import random
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "demo_records.csv"

COLUMNS = (
    "period",
    "reporter_code",
    "partner_code",
    "hs2_code",
    "value_usd",
    "first_submitted_at",
    "last_updated_at",
)
#: Value factors are drawn uniformly from this range.
FACTOR_RANGE = (0.8, 1.2)
#: Submission shifts are drawn uniformly from +-this many seconds (45 days).
MAX_SHIFT_S = 45 * 86400

_TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def _epoch(ts: str) -> int:
    return calendar.timegm(time.strptime(ts, _TS_FORMAT))


def _format(epoch: int) -> str:
    return time.strftime(_TS_FORMAT, time.gmtime(epoch))


def scaled_rows(k: int, seed: int, fixture: Path = FIXTURE):
    """Yield the k-fold rows (as lists of strings, in ``COLUMNS`` order)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    with open(fixture, newline="", encoding="utf-8") as fh:
        base = list(csv.DictReader(fh))
    parsed = [
        (r, float(r["value_usd"]), _epoch(r["first_submitted_at"]), _epoch(r["last_updated_at"]))
        for r in base
    ]
    rng = random.Random(seed)
    lo, hi = FACTOR_RANGE
    for j in range(k):
        for r, value, first, last in parsed:
            factor = lo + (hi - lo) * rng.random()
            room = min(MAX_SHIFT_S, last - first)
            shift = -MAX_SHIFT_S + int((room + MAX_SHIFT_S + 1) * rng.random())
            yield [
                r["period"],
                r["reporter_code"],
                f"{r['partner_code']}{j}",
                r["hs2_code"],
                f"{value * factor:.2f}",
                _format(first + shift),
                r["last_updated_at"],
            ]


def write_scaled(path, k: int, seed: int, fixture: Path = FIXTURE) -> int:
    """Write the k-fold record set to ``path``; returns the number of data rows."""
    n = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in scaled_rows(k, seed, fixture):
            writer.writerow(row)
            n += 1
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, required=True, help="number of copies of each row")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output CSV path")
    args = parser.parse_args(argv)
    n = write_scaled(args.out, args.k, args.seed)
    print(f"wrote {n} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
