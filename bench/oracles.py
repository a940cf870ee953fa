"""Independent reference computations for checking breaklens outputs.

Nothing here imports breaklens. Records are read with the ``csv`` module,
filtered by comparing fixed-width UTC timestamp strings and summed in plain
Python; regressions use ``np.linalg.lstsq`` and correlations ``np.corrcoef``.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

#: Chapter sets the benchmark workloads use (copied from the package docs).
CATEGORY_SETS = {
    "anova_food": frozenset({"02", "03", "04", "06", "07", "08", "20", "21", "22", "24"}),
    "full_food": frozenset(
        {"02", "03", "04", "06", "07", "08", "20", "21", "22", "24"}
        | {f"{c:02d}" for c in range(10, 20)}
    ),
    "medicines": frozenset({"30"}),
}

_TS_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")

#: Absolute tolerance on a vintage-search distance (1 - correlation).
DISTANCE_ATOL = 1e-9


def month_index(token: str) -> int:
    """Absolute month count of a ``YYYYMM`` or ``YYYY-MM`` token."""
    digits = token.replace("-", "")
    return int(digits[:4]) * 12 + int(digits[4:6]) - 1


class Records:
    """Rows of a trade-records CSV reduced to what aggregation needs.

    Each row is ``(month index, hs2, value in USD millions, first_submitted_at)``
    in file order; timestamps stay as ``YYYY-MM-DDTHH:MM:SSZ`` strings, which
    order the same way as the instants they name.
    """

    def __init__(self, path):
        rows = []
        with open(path, newline="", encoding="utf-8") as fh:
            for r in csv.DictReader(fh):
                first = r["first_submitted_at"]
                if not _TS_RE.match(first):
                    raise ValueError(f"oracle expects canonical UTC timestamps, got {first!r}")
                rows.append(
                    (month_index(r["period"]), r["hs2_code"], float(r["value_usd"]) / 1e6, first)
                )
        self.rows = rows

    def subset(self, chapters, start: int, end: int) -> list[tuple[int, float, str]]:
        """Rows in the chapter set whose month lies in [start, end]: (offset, value, first)."""
        return [
            (m - start, v, first)
            for m, hs2, v, first in self.rows
            if hs2 in chapters and start <= m <= end
        ]


def aggregate(subset, n_months: int, cutoff: str | None) -> list[float]:
    """Monthly totals of a subset, keeping rows first submitted at or before ``cutoff``."""
    totals = [0.0] * n_months
    for i, v, first in subset:
        if cutoff is None or first <= cutoff:
            totals[i] += v
    return totals


def read_target(path) -> tuple[int, list[float | None]]:
    """A (month, value) series CSV as (start month index, values)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [row for row in reader if row and row[0].strip()]
    start = month_index(rows[0][0].strip())
    values = [float(r[1]) if r[1].strip() else None for r in rows]
    return start, values


def one_minus_correlation(target: list[float | None], candidate: list[float]) -> float:
    """1 - Pearson correlation over months where the target is present.

    A constant side scores 0 when both sides are constant and 2 otherwise,
    the convention the vintage search documents.
    """
    pairs = [(a, b) for a, b in zip(target, candidate) if a is not None]
    xa = np.array([p[0] for p in pairs])
    xb = np.array([p[1] for p in pairs])
    if np.std(xa) == 0.0 or np.std(xb) == 0.0:
        return 0.0 if np.allclose(xa - xa.mean(), xb - xb.mean()) else 2.0
    return 1.0 - float(np.corrcoef(xa, xb)[0, 1])


def vintage_distances(records: Records, chapters, target_path, cutoffs: list[str]) -> list[float]:
    """Distance of each cutoff's reconstruction from the target series."""
    start, target = read_target(target_path)
    subset = records.subset(chapters, start, start + len(target) - 1)
    return [one_minus_correlation(target, aggregate(subset, len(target), c)) for c in cutoffs]


def check_search(cutoffs, distances, reported, best) -> list[str]:
    """Compare a reported search (``[[cutoff, distance], ...]``, best) with the oracle.

    The best cutoff must be one whose oracle distance is within tolerance of
    the minimum, so exact ties resolved differently by rounding still pass.
    """
    problems = []
    got = [c for c, _ in reported]
    if got != list(cutoffs):
        return [f"candidate list differs: {got[:3]}... vs {list(cutoffs)[:3]}..."]
    for (c, d), want in zip(reported, distances):
        if d is None or abs(d - want) > DISTANCE_ATOL:
            problems.append(f"distance at {c}: {d} vs oracle {want}")
    low = min(distances)
    near = {c for c, d in zip(cutoffs, distances) if d <= low + DISTANCE_ATOL}
    if best not in near:
        problems.append(f"best vintage {best} not among oracle minima {sorted(near)}")
    return problems


def trend_coefficients(values: list[float], window: tuple[int, int]) -> np.ndarray:
    """OLS of y on (1, D, t, tD) with D = [t >= 0]; ``values`` indexed t = window[0].."""
    t = np.arange(window[0], window[1] + 1, dtype=float)
    y = np.asarray(values, dtype=float)
    keep = np.isfinite(y)
    t, y = t[keep], y[keep]
    d = (t >= 0).astype(float)
    X = np.column_stack([np.ones_like(t), d, t, t * d])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return coef


def coefficients_close(got, want, scale: float) -> bool:
    """Coefficients agree to 1e-7 relative, plus 1e-9 of the outcome's scale."""
    got = np.asarray(got, dtype=float)
    return bool(np.all(np.abs(got - want) <= 1e-7 * np.abs(want) + 1e-9 * max(scale, 1.0)))


def tau_close(got: float, want: float, y) -> bool:
    """Discontinuity estimates agree to 1e-7 relative, plus 1e-9 of the outcome's scale."""
    return abs(got - want) <= 1e-7 * abs(want) + 1e-9 * float(np.max(np.abs(y)))


def rd_tau(t, y, h: float, p: int, nu: int) -> float:
    """Right-minus-left derivative ``nu`` of one-sided triangular-kernel WLS fits of order ``p``.

    The right side includes t = 0. Each side is fitted by ``lstsq`` on
    rows scaled by the square root of the kernel weight.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    est = []
    for side in (t < 0, t >= 0):
        u, yy = t[side], y[side]
        w = np.maximum(0.0, 1.0 - np.abs(u) / h)
        pos = w > 0
        u, yy, sw = u[pos], yy[pos], np.sqrt(w[pos])
        V = np.vander(u, p + 1, increasing=True)
        beta, *_ = np.linalg.lstsq(V * sw[:, None], yy * sw, rcond=None)
        est.append(math.factorial(nu) * beta[nu])
    return float(est[1] - est[0])
