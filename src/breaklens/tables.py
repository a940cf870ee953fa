"""Fixed-width text tables for trend-break, discontinuity and audit results."""

from __future__ import annotations

import math

JUMPS = (("level", "Change in level"), ("slope", "Change in slope"))


def significance_stars(p: float) -> str:
    """*** p<0.01, ** p<0.05, * p<0.10; none for a NaN p-value."""
    if not math.isfinite(p):
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


LABEL_WIDTH = 22
COL_WIDTH = 20


def _rule(char: str, header) -> str:
    return char * (LABEL_WIDTH + COL_WIDTH * len(header))


def _layout(rows: list[tuple[str, list[str]]], header: list[str]) -> list[str]:
    lines = [" " * LABEL_WIDTH + "".join(f"{h:>{COL_WIDTH}}" for h in header)]
    for label, cells in rows:
        lines.append(f"{label:<{LABEL_WIDTH}}" + "".join(f"{c:>{COL_WIDTH}}" for c in cells))
    return lines


def _trend_cell(record: dict, which: str) -> str:
    idx = {"level": "alpha1", "slope": "alpha3"}[which]
    return format_cell(record["coef"][idx], record["se"][idx], record["p"][idx])


def render_trend_table(
    records: list[dict],
    series_order: list[str],
    panels: list[tuple[str, str]],
) -> str:
    """Panels of (transform, vintage); columns are series; rows are the
    level and slope discontinuity coefficients formatted 'X.XX*** (S.SS)'.
    Every (series, transform, vintage) a panel names must have a record."""
    by_key = {(r["series"], r["transform"], r["vintage"]): r for r in records}
    lines = ["Trend interruption estimates", _rule("=", series_order)]
    for transform, vintage in panels:
        lines.append(f"Panel: {transform}, vintage {vintage}")
        cells = [by_key[(s, transform, vintage)] for s in series_order]
        rows = [(label, [_trend_cell(r, which) for r in cells]) for which, label in JUMPS]
        lines.extend(_layout(rows, series_order))
        lines.append(_rule("-", series_order))
    return "\n".join(lines) + "\n"


def render_rdd_table(records: list[dict], series_order: list[str]) -> str:
    """Local-polynomial discontinuity estimates: one row pair per estimand in
    the records, level before slope, each with a record for every series."""
    by_key = {(r["series"], r["estimand"]): r for r in records}
    transforms = ", ".join(sorted({r["transform"] for r in records}))
    vintages = ", ".join(sorted({r["vintage"] for r in records}))
    title = f"Regression discontinuity estimates ({transforms}; vintage {vintages})"
    lines = [title, _rule("=", series_order)]
    rows = []
    for estimand, label in JUMPS:
        if any(r["estimand"] == estimand for r in records):
            cells = [by_key[(s, estimand)] for s in series_order]
            rows.append((label, [format_cell(r["tau"], r["se_conventional"], r["p_robust"]) for r in cells]))
            rows.append(("  bandwidth (months)", [f"{r['h_months']:.1f}" for r in cells]))
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
    lines = ["Series audit: extracted vs reconstructed", _rule("=", AUDIT_SIDES)]
    for record in records:
        lines.append(
            f"{record['label']} (series {record['series']}, vintage {record['vintage']})"
        )
        rows = [
            (label, [_audit_cell(ex, fmt), _audit_cell(rc, fmt)])
            for _, label, fmt, ex, rc in audit_rows(record)
        ]
        lines.extend(_layout(rows, list(AUDIT_SIDES)))
        if record["vintage_search"]:
            lines.append(
                f"Best vintage cutoff: {record['vintage_search']['best']} "
                f"({record['vintage_search']['metric']})"
            )
        lines.append(_rule("-", AUDIT_SIDES))
    return "\n".join(lines) + "\n"


def render_tables(results: dict) -> dict[str, str]:
    """Render every table the results bundle supports, keyed by name."""
    layout = results["layout"]
    series_order = layout["series"]
    panels = [tuple(p) for p in layout["panels"]]
    tables = {"trend_table": render_trend_table(results["trend_break"], series_order, panels)}
    if results["rdd"]:
        tables["rdd_table"] = render_rdd_table(results["rdd"], series_order)
    if results["audit"]:
        tables["audit_table"] = render_audit_table(results["audit"])
    return tables
