"""The seeded scaled-record generator."""

import csv
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import make_scaled  # noqa: E402
from breaklens.trade_ingest import parse_records  # noqa: E402

BASE_ROWS = 1944


def test_same_seed_gives_identical_bytes(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    make_scaled.write_scaled(a, 3, seed=7)
    make_scaled.write_scaled(b, 3, seed=7)
    make_scaled.write_scaled(c, 3, seed=8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_output_parses_with_unique_keys_and_ordered_timestamps(tmp_path):
    path = tmp_path / "x3.csv"
    assert make_scaled.write_scaled(path, 3, seed=1) == 3 * BASE_ROWS
    records = parse_records(path)
    assert len(records) == 3 * BASE_ROWS
    keys = {(r.period, r.reporter, r.partner, r.hs2) for r in records}
    assert len(keys) == len(records)
    assert all(r.first_submitted_at <= r.last_updated_at for r in records)
    assert {r.partner[-1] for r in records} == {"0", "1", "2"}


def test_copies_scale_values_and_shift_submissions_within_bounds(tmp_path):
    path = tmp_path / "x2.csv"
    make_scaled.write_scaled(path, 2, seed=3)
    with open(make_scaled.FIXTURE, newline="") as fh:
        base = list(csv.DictReader(fh))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    lo, hi = make_scaled.FACTOR_RANGE
    for j in range(2):
        for b, r in zip(base, rows[j * BASE_ROWS : (j + 1) * BASE_ROWS]):
            assert r["partner_code"] == f"{b['partner_code']}{j}"
            assert r["last_updated_at"] == b["last_updated_at"]
            ratio = float(r["value_usd"]) / float(b["value_usd"])
            assert lo - 1e-6 <= ratio <= hi + 1e-6
            shift = make_scaled._epoch(r["first_submitted_at"]) - make_scaled._epoch(
                b["first_submitted_at"]
            )
            assert abs(shift) <= make_scaled.MAX_SHIFT_S
