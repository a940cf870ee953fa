"""Regenerate the committed synthetic demo dataset.

Run from the repo root:

    PYTHONPATH=src python3 fixtures/make_demo_data.py

Produces demo_records.csv (partner-reported monthly flows with submission
timestamps, 2012-2020) and demo_extracted_food.csv (a lightly perturbed
version of the restricted-food aggregation at the 2020-10-01 vintage,
standing in for a series digitized from a published figure).
"""

import csv
import math
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from breaklens.trade_ingest import (
    ANOVA_FOOD,
    VintagePolicy,
    aggregate_series,
    apply_vintage,
    parse_records,
)

HERE = Path(__file__).resolve().parent

# chapter -> relative scale of monthly value (USD millions across all partners)
CHAPTERS = {"02": 9.0, "04": 14.0, "10": 30.0, "17": 11.0, "22": 5.0, "30": 18.0}
# partner -> (share of each chapter, min/max submission lag in months)
PARTNERS = {"DEU": (0.5, 2, 5), "USA": (0.3, 6, 12), "BRA": (0.2, 14, 26)}

START = date(2012, 1, 1)
N_MONTHS = 108  # through 2020-12
CUTOFF_I = 67  # 2017-08
# the "extracted" target: restricted food at this vintage over the trend window
TARGET_VINTAGE = datetime(2020, 10, 1, tzinfo=timezone.utc)
TARGET_WINDOW = (date(2015, 4, 1), date(2019, 12, 1))


def month_at(i: int) -> date:
    y, m = divmod((START.year * 12 + START.month - 1) + i, 12)
    return date(y, m + 1, 1)


def chapter_level(scale: float, i: int, wobble: float) -> float:
    if i < CUTOFF_I:
        base = scale * math.exp(-0.018 * i)
    else:
        at_cut = scale * math.exp(-0.018 * CUTOFF_I)
        base = at_cut * (0.80 + 0.004 * (i - CUTOFF_I))
    seasonal = 1.0 + 0.08 * math.sin(2.0 * math.pi * month_at(i).month / 12.0)
    return base * seasonal * wobble


def main() -> None:
    rng = np.random.default_rng(42)
    rows = []
    for i in range(N_MONTHS):
        period = month_at(i)
        for code, scale in sorted(CHAPTERS.items()):
            wobble = math.exp(0.05 * rng.standard_normal())
            total = chapter_level(scale, i, wobble)
            for partner, (share, lag_lo, lag_hi) in sorted(PARTNERS.items()):
                value_usd = total * share * 1e6
                lag = int(rng.integers(lag_lo, lag_hi + 1))
                sub_month = month_at(i + lag)
                first = datetime(
                    sub_month.year,
                    sub_month.month,
                    int(rng.integers(1, 28)),
                    int(rng.integers(0, 24)),
                    tzinfo=timezone.utc,
                )
                last = first + timedelta(days=int(rng.integers(0, 500)))
                rows.append(
                    [
                        f"{period.year:04d}{period.month:02d}",
                        "VEN",
                        partner,
                        code,
                        f"{value_usd:.2f}",
                        first.strftime("%Y-%m-%dT%H:%M:%SZ"),
                        last.strftime("%Y-%m-%dT%H:%M:%SZ"),
                    ]
                )
    with open(HERE / "demo_records.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "period",
                "reporter_code",
                "partner_code",
                "hs2_code",
                "value_usd",
                "first_submitted_at",
                "last_updated_at",
            ]
        )
        writer.writerows(rows)
    n_months = write_target(HERE / "demo_records.csv", HERE / "demo_extracted_food.csv")
    print(f"wrote {len(rows)} records and {n_months} target months")


def write_target(records_path, out_path) -> int:
    """Write the "extracted" target series computed from a records file: its
    restricted-food aggregation at the target vintage, with a small
    deterministic perturbation. Returns the number of months written."""
    kept = apply_vintage(parse_records(records_path), VintagePolicy(TARGET_VINTAGE))
    series = aggregate_series(kept, ANOVA_FOOD, TARGET_WINDOW)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["month", "value_usd_millions"])
        for k, (m, total) in enumerate(zip(series.months(), series.values)):
            perturbed = total * (1.0 + 0.003 * math.sin(0.9 * k))
            writer.writerow([f"{m.year:04d}-{m.month:02d}", f"{perturbed:.4f}"])
    return len(series)


if __name__ == "__main__":
    main()
