"""Fixed-width text tables for trend-break, discontinuity and audit results."""

from __future__ import annotations

import math
import warnings

MISSING_CELL = "—"  # missing results render as an em dash


def significance_stars(p: float) -> str:
    """*** p<0.01, ** p<0.05, * p<0.10."""
    if p is None or not math.isfinite(p):
        return ""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.10:
        return "*"
    return ""


def format_cell(coef: float, se: float, p: float) -> str:
    return f"{coef:.2f}{significance_stars(p)} ({se:.2f})"


def _layout(rows: list[tuple[str, list[str]]], header: list[str], label_width: int = 22, col_width: int = 20) -> list[str]:
    lines = []
    head = " " * label_width + "".join(f"{h:>{col_width}}" for h in header)
    lines.append(head)
    for label, cells in rows:
        lines.append(f"{label:<{label_width}}" + "".join(f"{c:>{col_width}}" for c in cells))
    return lines


def _trend_cell(record: dict | None, which: str) -> str:
    if record is None:
        return MISSING_CELL
    idx = {"level": "alpha1", "slope": "alpha3"}[which]
    coef = record["coef"][idx]
    se = record["se"][idx]
    p = record["p"][idx]
    return format_cell(coef, se, p if p is not None else float("nan"))


def render_trend_table(
    records: list[dict],
    series_order: list[str],
    panels: list[tuple[str, str]],
) -> str:
    """Panels of (transform, vintage); columns are series; rows are the
    level and slope discontinuity coefficients formatted 'X.XX*** (S.SS)'."""
    by_key = {(r["series"], r["transform"], r["vintage"]): r for r in records}
    lines = ["Trend interruption estimates", "=" * (22 + 20 * len(series_order))]
    for transform, vintage in panels:
        lines.append(f"Panel: {transform}, vintage {vintage}")
        rows = []
        for which, label in (("level", "Change in level"), ("slope", "Change in slope")):
            cells = []
            for s in series_order:
                record = by_key.get((s, transform, vintage))
                if record is None:
                    warnings.warn(
                        f"missing trend cell: series={s} transform={transform} vintage={vintage}"
                    )
                cells.append(_trend_cell(record, which))
            rows.append((label, cells))
        lines.extend(_layout(rows, series_order))
        lines.append("-" * (22 + 20 * len(series_order)))
    return "\n".join(lines) + "\n"


def render_rdd_table(records: list[dict], series_order: list[str]) -> str:
    """Local-polynomial discontinuity estimates; one row pair per estimand."""
    by_key = {(r["series"], r["estimand"]): r for r in records}
    transforms = sorted({r["transform"] for r in records})
    vintages = sorted({r["vintage"] for r in records})
    title = "Regression discontinuity estimates"
    if transforms and vintages:
        title += f" ({', '.join(transforms)}; vintage {', '.join(vintages)})"
    lines = [title, "=" * (22 + 20 * len(series_order))]
    rows = []
    for estimand, label in (("level", "Change in level"), ("slope", "Change in slope")):
        cells, bw_cells = [], []
        for s in series_order:
            record = by_key.get((s, estimand))
            if record is None:
                warnings.warn(f"missing discontinuity cell: series={s} estimand={estimand}")
                cells.append(MISSING_CELL)
                bw_cells.append(MISSING_CELL)
            else:
                cells.append(
                    format_cell(record["tau"], record["se_conventional"], record["p_robust"])
                )
                bw_cells.append(f"{record['h_months']:.1f}")
        rows.append((label, cells))
        rows.append(("  bandwidth (months)", bw_cells))
    lines.extend(_layout(rows, series_order))
    return "\n".join(lines) + "\n"


AUDIT_SIDES = ("extracted", "reconstructed")


def audit_rows(record: dict) -> list[tuple]:
    """The statistics of one audit record, read by both the audit table and
    audit.csv: ``(name, label, format, extracted, reconstructed)``, where a
    side is a ``(coef, se, p)`` triple, a number or None."""
    means = [record["means"][side] for side in AUDIT_SIDES]

    def coef(name: str) -> list[tuple]:
        sides = [record["coefficients"][side] for side in AUDIT_SIDES]
        return [(c[name], c[f"{name}_se"], c[f"{name}_p"]) for c in sides]

    return [
        ("change_in_level", "Change in level", ".2f", *coef("alpha1")),
        ("change_in_slope", "Change in slope", ".2f", *coef("alpha3")),
        ("average_level", "Average level", ".2f", *(m["overall"] for m in means)),
        ("pre_cutoff_mean", "Pre-cutoff mean", ".2f", *(m["pre"] for m in means)),
        ("post_cutoff_mean", "Post-cutoff mean", ".2f", *(m["post"] for m in means)),
        ("correlation", "Correlation", ".4f", record["correlation"], None),
    ]


def _audit_cell(side, fmt: str) -> str:
    if side is None:
        return ""
    return format_cell(*side) if isinstance(side, tuple) else format(side, fmt)


def render_audit_table(records: list[dict]) -> str:
    """Extracted-versus-reconstructed comparison, one block per audit target."""
    lines = ["Series audit: extracted vs reconstructed", "=" * 62]
    for record in records:
        lines.append(
            f"{record['label']} (series {record['series']}, vintage {record['vintage']})"
        )
        rows = [
            (label, [_audit_cell(ex, fmt), _audit_cell(rc, fmt)])
            for _, label, fmt, ex, rc in audit_rows(record)
        ]
        lines.extend(_layout(rows, list(AUDIT_SIDES)))
        if record.get("vintage_search"):
            lines.append(
                f"Best vintage cutoff: {record['vintage_search']['best']} "
                f"({record['vintage_search']['metric']})"
            )
        lines.append("-" * 62)
    return "\n".join(lines) + "\n"


def render_tables(results: dict) -> dict[str, str]:
    """Render every table the results bundle supports, keyed by name."""
    tables = {}
    layout = results.get("layout", {})
    series_order = layout.get("series", [])
    if results.get("trend_break"):
        tables["trend_table"] = render_trend_table(
            results["trend_break"],
            series_order,
            [tuple(p) for p in layout.get("panels", [])],
        )
    if results.get("rdd"):
        tables["rdd_table"] = render_rdd_table(results["rdd"], series_order)
    if results.get("audit"):
        tables["audit_table"] = render_audit_table(results["audit"])
    return tables
