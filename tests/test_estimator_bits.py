"""The estimators' outputs, bit for bit, over a seeded grid.

``tests/estimator_bits.json`` holds ``float.hex()`` of every float field and
the integer fields of ``rd_estimate`` and ``fit_trend_break`` on AR(1)
series shaped like the benchmark's Monte Carlo ones (t = -67..40 around a
2017-08 cutoff, quadratic trend), so a change to the local-polynomial or OLS
core that moves any result by one bit shows here, named by series, spec and
field. Regenerate it only for an intended change of results:

    PYTHONPATH=src python tests/test_estimator_bits.py --write
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import warnings
from datetime import date
from pathlib import Path

import numpy as np

from breaklens.rdd_local_poly import RddSpec, rd_estimate
from breaklens.series import MonthlySeries, SeriesMeta
from breaklens.trend_break import TrendBreakSpec, fit_trend_break

BITS = Path(__file__).resolve().parent / "estimator_bits.json"

CUTOFF = date(2017, 8, 1)
START = date(2012, 1, 1)  # t = -67
T = np.arange(-67, 41, dtype=float)
TREND = 100.0 + 0.2 * T + 0.005 * T**2
SIGMA = 2.0
RHOS = (0.0, 0.5, 0.8)
SERIES_PER_RHO = 2
MANUAL_BANDWIDTH = 14.0


def _series() -> dict[str, MonthlySeries]:
    rng = np.random.default_rng(20171)
    out = {}
    for rho, i in itertools.product(RHOS, range(SERIES_PER_RHO)):
        shocks = rng.standard_normal(len(T)) * SIGMA
        noise = np.empty(len(T))
        noise[0] = shocks[0] / np.sqrt(1.0 - rho**2)
        for j in range(1, len(T)):
            noise[j] = rho * noise[j - 1] + shocks[j]
        label = f"rho={rho} #{i}"
        out[label] = MonthlySeries(START, TREND + noise, SeriesMeta(label=label))
    return out


def _rd_specs() -> dict[str, RddSpec]:
    grid = itertools.product(
        ("level", "slope"), ("triangular", "uniform"), ("wls_residuals", "nearest_neighbor"),
        ("mse_optimal", MANUAL_BANDWIDTH),
    )
    return {
        f"rd {e}/{k}/{v}/h={h}": RddSpec(CUTOFF, estimand=e, kernel=k, variance=v, bandwidth=h)
        for e, k, v, h in grid
    }


def _trend_specs() -> dict[str, TrendBreakSpec]:
    return {f"trend {se}": TrendBreakSpec(CUTOFF, se_type=se) for se in ("classical", "newey_west")}


def _bits(value, name: str):
    """(field name, bits) of each float and integer inside ``value``."""
    if isinstance(value, tuple):
        for i, v in enumerate(value):
            yield from _bits(v, f"{name}[{i}]")
    elif isinstance(value, float):
        yield name, value.hex()
    elif isinstance(value, int) and not isinstance(value, bool):
        yield name, value


def grid() -> list[dict]:
    """One entry per (series, spec): the bits of every numeric field of the fit."""
    estimators = [(spec, rd_estimate) for spec in _rd_specs().items()]
    estimators += [(spec, fit_trend_break) for spec in _trend_specs().items()]
    entries = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the rule-of-thumb fallback warns
        for (label, series), ((name, spec), estimate) in itertools.product(_series().items(), estimators):
            fit = estimate(series, spec)
            fields = {}
            for f in dataclasses.fields(fit):
                fields.update(_bits(getattr(fit, f.name), f.name))
            entries.append({"series": label, "spec": name, "fields": fields})
    return entries


def test_estimators_reproduce_their_committed_bits():
    expected = json.loads(BITS.read_text(encoding="utf-8"))
    got = grid()
    assert [(e["series"], e["spec"]) for e in got] == [(e["series"], e["spec"]) for e in expected]
    for old, new in zip(expected, got):
        for field in dict.fromkeys([*old["fields"], *new["fields"]]):
            before, after = old["fields"].get(field), new["fields"].get(field)
            assert before == after, f"{new['series']}, {new['spec']}, {field}: {before} became {after}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    lines = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in grid())
    BITS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
