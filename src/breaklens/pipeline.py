"""Configuration-driven orchestration: validate, make the output directory,
read and fit the audit targets, ingest, aggregate, then trend_break, rdd,
audit and write. ``run_pipeline`` is the one executor; ``run`` takes every
stage, ``audit`` the same plan without the fits (``audit_only``).

A run is described by a single JSON config (committed examples live under
``configs/`` and ``fixtures/``), checked in full before the data file is
opened. Identical inputs produce byte-identical outputs: iteration order is
fixed by the config, result files carry no timestamps, and JSON is written
with sorted keys.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

from .errors import ConfigError, DataError, EstimationError, SpecError
from .months import (
    add_months,
    format_month,
    format_timestamp,
    parse_month,
    parse_timestamp,
)
from .rdd_local_poly import MSE_OPTIMAL, RddSpec, rd_estimate, require_monthly_support
from .replication_audit import DISTANCE_METRICS, compare_series, search_vintage_date
from .series import LEVELS, LOG, TRANSFORMS, MonthlySeries, SeriesMeta, read_series_csv
from .tables import AUDIT_SIDES, TABLES, audit_rows, render_tables
from .trade_ingest import (
    BUILTIN_CATEGORY_SETS,
    CategorySet,
    VintagePolicy,
    aggregate_series,
    apply_vintage,
    parse_records,
)
from .trend_break import (
    CounterfactualPath,
    TrendBreakFit,
    TrendBreakSpec,
    counterfactual_projection,
    feasibility_check,
    fit_trend_break,
    log_transform,
)

# -- config schema ------------------------------------------------------------
# Each config key is one field of the frozen dataclasses below, declared with
# key(kind, default). A kind is a Scalar, a schema dataclass (a JSON object
# with its keys), [kind, ...] (a list of any length), [kind, kind] (a list of
# exactly those) or {TEXT: kind} (an object with free keys). No entry of a list
# of any length repeats (in a list of objects, no label). Estimator settings
# are range-checked by the TrendBreakSpec and RddSpec that validate() builds.


def _expected(path: str, what: str, value) -> ConfigError:
    return ConfigError(f"{path or 'config'}: expected {what}, got {json.dumps(value)}")


class Scalar:
    """A finite JSON string, number or boolean of one of ``types`` exactly (a
    JSON boolean is not an integer) that passes ``test``, then ``parse``."""

    def __init__(self, what: str, types: tuple, test=None, parse=None, dump=None):
        self.what, self.types, self.test = what, types, test
        self.parse, self.dump = parse or (lambda v: v), dump or (lambda v: v)

    def load(self, value, path: str):
        finite = type(value) is not float or math.isfinite(value)
        if type(value) not in self.types or not finite or (self.test and not self.test(value)):
            raise _expected(path, self.what, value)
        try:
            return self.parse(value)
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"{path}: {e}") from e


def _key_path(prefix: str, name: str) -> str:
    """The JSON path of key ``name`` under ``prefix``; a key holding a newline
    or another unprintable character is quoted, so an error stays one line."""
    return prefix + (name if name.isprintable() else repr(name))


def _load(kind, value, path: str):
    """Check and convert one JSON value of the given kind; errors name ``path``."""
    if isinstance(kind, Scalar):
        return kind.load(value, path)
    if isinstance(kind, list):
        anylen = kind[-1] is ...
        if type(value) is not list or not (anylen or len(value) == len(kind)):
            raise _expected(path, "a list" if anylen else f"a list of {len(kind)}", value)
        kinds = kind[:1] * len(value) if anylen else kind
        loaded = tuple(_load(k, v, f"{path}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
        if anylen:
            _unique(path, [v.label for v in loaded] if is_dataclass(kind[0]) else loaded)
        return loaded
    if type(value) is not dict:
        raise _expected(path, "an object", value)
    prefix = f"{path}." if path else ""
    if isinstance(kind, dict):
        ((key_kind, kind),) = kind.items()
        return {_load(key_kind, name, path): _load(kind, v, _key_path(prefix, name)) for name, v in value.items()}
    # a schema dataclass: an absent or null key takes its default, if it has one
    declared = {f.name: f for f in fields(kind)}
    for name in value:
        if name not in declared:
            raise ConfigError(f"{_key_path(prefix, name)}: unknown key")
    loaded = {}
    for name, f in declared.items():
        if value.get(name) is not None:
            loaded[name] = _load(f.metadata["kind"], value[name], prefix + name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{prefix}{name}: required key is missing or null")
    return kind(**loaded)


def _dump(kind, value):
    """The JSON form of a value loaded by ``_load``."""
    if value is None:
        return None
    if isinstance(kind, Scalar):
        return kind.dump(value)
    if isinstance(kind, list):
        kinds = kind[:1] * len(value) if kind[-1] is ... else kind
        return [_dump(k, v) for k, v in zip(kinds, value)]
    if isinstance(kind, dict):
        ((_, kind),) = kind.items()
        return {name: _dump(kind, v) for name, v in value.items()}
    return {f.name: _dump(f.metadata["kind"], getattr(value, f.name)) for f in fields(kind)}


def key(kind, default=MISSING, default_factory=MISSING):
    """A config key: its kind and default; a key without a default is required."""
    return field(default=default, default_factory=default_factory, metadata={"kind": kind})


def at_least(low: int) -> Scalar:
    return Scalar(f"an integer >= {low}", (int,), lambda v: v >= low)


def one_of(choices: tuple[str, ...]) -> Scalar:
    return Scalar(f"one of {', '.join(choices)}", (str,), lambda v: v in choices)


# no file name holds NUL, and UTF-8 cannot encode a lone surrogate
TEXT = Scalar("a string without NUL or lone surrogates", (str,), lambda v: not re.search("[\0\ud800-\udfff]", v))
INT = Scalar("an integer", (int,))
BOOL = Scalar("true or false", (bool,))
NUMBER = Scalar("a number", (int, float))
MONTH = Scalar("a month YYYY-MM", (str,), parse=parse_month, dump=format_month)
DAY = Scalar("a date YYYY-MM-DD", (str,), parse=date.fromisoformat, dump=date.isoformat)
INSTANT = Scalar("an ISO-8601 timestamp", (str,), parse=parse_timestamp, dump=format_timestamp)
BANDWIDTH = Scalar('"mse_optimal" or a number of months', (str, int, float))


@dataclass(frozen=True, kw_only=True)
class SeriesDef:
    label: str = key(TEXT)
    category_set: str = key(TEXT)


@dataclass(frozen=True, kw_only=True)
class VintageDef:
    label: str = key(TEXT)
    cutoff: datetime | None = key(INSTANT, None)  # None means all records (latest data)


@dataclass(frozen=True, kw_only=True)
class TrendBreakDef:
    cutoff_month: date = key(MONTH)
    pre_window: int = key(INT, TrendBreakSpec.pre_window)
    post_window: int = key(INT, TrendBreakSpec.post_window)
    treat_cutoff_as_post: bool = key(BOOL, TrendBreakSpec.treat_cutoff_as_post)
    se_type: str = key(TEXT, TrendBreakSpec.se_type)
    hac_lags: int | None = key(INT, TrendBreakSpec.hac_lags)
    horizon: int | None = key(at_least(0), None)  # None means post_window - 1


@dataclass(frozen=True, kw_only=True)
class RddDef:
    cutoff_month: date = key(MONTH)
    estimands: tuple[str, ...] = key([TEXT, ...], ("level", "slope"))
    kernel: str = key(TEXT, RddSpec.kernel)
    bandwidth: float | str = key(BANDWIDTH, RddSpec.bandwidth)
    bandwidth_sample: tuple[date, date] = key([MONTH, MONTH], RddSpec.bandwidth_sample)
    transform: str = key(one_of(TRANSFORMS), LOG)
    vintage: str = key(TEXT, "latest")
    poly_order_level: int | None = key(INT, None)
    poly_order_slope: int | None = key(INT, None)
    pilot_factor: float = key(NUMBER, RddSpec.pilot_factor)
    variance: str = key(TEXT, RddSpec.variance)


@dataclass(frozen=True, kw_only=True)
class SearchGrid:
    start: date = key(DAY, date(2020, 10, 1))
    end: date = key(DAY, date(2020, 12, 31))
    step_days: int = key(at_least(1), 7)

    def count(self) -> int:
        """Number of candidate dates, by arithmetic rather than by listing them."""
        return max(0, (self.end - self.start).days // self.step_days + 1)

    def candidates(self) -> list[datetime]:
        days = (self.start + timedelta(days=k * self.step_days) for k in range(self.count()))
        return [datetime(d.year, d.month, d.day, tzinfo=timezone.utc) for d in days]


@dataclass(frozen=True, kw_only=True)
class AuditDef:
    label: str = key(TEXT)
    target_file: str = key(TEXT)
    series: str = key(TEXT)
    vintage: str = key(TEXT)
    metric: str = key(one_of(DISTANCE_METRICS), "one_minus_correlation")
    search: SearchGrid | None = key(SearchGrid, None)


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    data_file: str = key(TEXT)
    series: tuple[SeriesDef, ...] = key([SeriesDef, ...])
    vintages: tuple[VintageDef, ...] = key([VintageDef, ...])
    transforms: tuple[str, ...] = key([TEXT, ...], TRANSFORMS)
    trend_break: TrendBreakDef = key(TrendBreakDef)
    rdd: RddDef | None = key(RddDef, None)
    audits: tuple[AuditDef, ...] = key([AuditDef, ...], ())
    category_sets: dict[str, tuple[str, ...]] = key({TEXT: [TEXT, ...]}, default_factory=dict)
    panels: tuple[tuple[str, str], ...] | None = key([[TEXT, TEXT], ...], None)
    output_dir: str = key(TEXT, "out")
    seed: int | None = key(INT, None)

    @classmethod
    def from_dict(cls, raw) -> "RunConfig":
        """Typed parse; a value of the wrong type or range is named by its JSON path."""
        return _load(cls, raw, "")

    def to_dict(self) -> dict:
        return _dump(type(self), self)

    def trend_spec(self, transform: str) -> TrendBreakSpec:
        paths = {"transform": "transforms"}
        return _spec(TrendBreakSpec, self.trend_break, "trend_break", paths, transform=transform)

    def rdd_spec(self, estimand: str) -> RddSpec:
        rdd = self.rdd
        order = rdd.poly_order_level if estimand == "level" else rdd.poly_order_slope
        paths = {"estimand": "rdd.estimands", "poly_order": f"rdd.poly_order_{estimand}"}
        return _spec(RddSpec, rdd, "rdd", paths, estimand=estimand, poly_order=order)

    def resolve_category_set(self, name: str) -> CategorySet:
        if name in self.category_sets:
            return CategorySet(name, frozenset(self.category_sets[name]))
        return BUILTIN_CATEGORY_SETS[name]

    def resolved_panels(self) -> tuple[tuple[str, str], ...]:
        if self.panels is not None:
            return self.panels
        return tuple((tr, v.label) for tr in self.transforms for v in self.vintages)

    def validate(self, base_dir: Path) -> None:
        """Check what the typed parse cannot: empty lists, colliding figure
        files, references between keys, files, the calendar, and the
        estimator settings, the last by building every spec the run will use
        and fitting each discontinuity spec once on its sample's months."""
        for name in ("series", "vintages", "transforms"):
            if not getattr(self, name):
                raise ConfigError(f"{name}: must not be empty")
        series = {s.label for s in self.series}
        vintages = {v.label for v in self.vintages}
        cells = [
            f"{s.label}/{tr}/{v.label}" for s in self.series for v in self.vintages for tr in self.transforms
        ]
        _unique("figures", [_figure_file(cell) for cell in cells], cells)
        for cell in cells:
            name = _figure_file(cell)
            if len(name.encode("utf-8")) > 255:
                raise ConfigError(f"figures: cell {cell!r} cannot name a file: a file name holds at most 255 bytes")
        _require_file(base_dir, "data_file", self.data_file)
        for name, codes in self.category_sets.items():
            try:
                CategorySet(name, frozenset(codes))
            except ValueError as e:
                raise ConfigError(f"{_key_path('category_sets.', name)}: {e}") from e
        for i, s in enumerate(self.series):
            if s.category_set not in self.category_sets | BUILTIN_CATEGORY_SETS:
                raise ConfigError(f"series[{i}].category_set: unknown category set {s.category_set!r}")
        for transform in self.transforms:
            self.trend_spec(transform)
        try:
            _aggregation_span(self)
            add_months(self.trend_break.cutoff_month, self.trend_break.horizon or 0)
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"trend_break: window or horizon leaves the calendar: {e}") from e
        for i, (transform, vintage) in enumerate(self.resolved_panels()):
            if transform not in self.transforms or vintage not in vintages:
                raise ConfigError(f"panels[{i}]: needs a declared transform and vintage")
        if self.rdd is not None:
            if self.rdd.vintage not in vintages:
                raise ConfigError(f"rdd.vintage: {self.rdd.vintage!r} is not declared")
            for estimand in self.rdd.estimands:
                spec = self.rdd_spec(estimand)
                try:
                    require_monthly_support(spec)
                except EstimationError as e:
                    # a manual width is the key the fit failed at, else the sample
                    name = "bandwidth_sample" if spec.bandwidth == MSE_OPTIMAL else "bandwidth"
                    raise ConfigError(f"rdd.{name}: {estimand} fit: {e}") from e
        for i, a in enumerate(self.audits):
            if a.series not in series:
                raise ConfigError(f"audits[{i}].series: unknown series {a.series!r}")
            if a.vintage not in vintages:
                raise ConfigError(f"audits[{i}].vintage: unknown vintage {a.vintage!r}")
            _require_file(base_dir, f"audits[{i}].target_file", a.target_file)
            if a.search is not None and a.search.count() < 2:
                raise ConfigError(f"audits[{i}].search: {a.search.count()} candidate date(s), need >= 2")


def _spec(cls, settings, section: str, paths: dict[str, str], **extra):
    """The estimator spec built from the config keys named like its fields, plus
    ``extra``; a field it rejects is a ConfigError on ``section.field`` or ``paths``."""
    names = {f.name for f in fields(cls)}
    try:
        return cls(**{k: v for k, v in vars(settings).items() if k in names}, **extra)
    except SpecError as e:
        raise ConfigError(f"{paths.get(e.field, f'{section}.{e.field}')}: {e.message}") from e


def _unique(path: str, values, writers=None) -> None:
    """A value that repeats in ``values`` is a ConfigError on ``path``; with
    ``writers``, one per value, the error names the first two that write it."""
    for i, value in enumerate(values):
        if values.count(value) > 1:
            if writers is None:
                raise ConfigError(f"{path}: {value!r} appears more than once")
            j = values.index(value, i + 1)
            raise ConfigError(f"{path}: cells {writers[i]!r} and {writers[j]!r} both write {value!r}")


def _require_file(base_dir: Path, path: str, name: str) -> None:
    if not (Path(base_dir) / name).is_file():
        raise ConfigError(f"{path}: file not found: {name!r}")


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except ValueError as e:  # a JSON syntax error, or bytes that are not UTF-8
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return RunConfig.from_dict(raw)


# -- execution --------------------------------------------------------------


@contextmanager
def _stage(stage: str, label: str = ""):
    where = f"{stage}:{label}" if label else stage
    try:
        yield
    except EstimationError as e:
        raise EstimationError(f"[{where}] {e}") from e
    except (DataError, OSError) as e:
        raise DataError(f"[{where}] {e}") from e


def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def _trend_record(
    label: str,
    transform: str,
    vintage: str,
    fit: TrendBreakFit,
    path: CounterfactualPath,
) -> dict:
    names = ("alpha0", "alpha1", "alpha2", "alpha3")
    feasibility = None
    crossing = None
    if transform == LEVELS:
        check = feasibility_check(path)
        feasibility = check.feasible
        crossing = (
            None
            if check.infeasible_at_month is None
            else format_month(check.infeasible_at_month)
        )
    return {
        "series": label,
        "transform": transform,
        "vintage": vintage,
        "coef": dict(zip(names, fit.coefficients)),
        "se": dict(zip(names, fit.se)),
        "t": dict(zip(names, fit.t_stats)),
        "p": dict(zip(names, fit.p_values)),
        "r_squared": fit.r_squared,
        "n_pre": fit.n_pre,
        "n_post": fit.n_post,
        "n": fit.n,
        "counterfactual_end": path.values[-1],
        "counterfactual_end_month": format_month(path.months[-1]),
        "feasible": feasibility,
        "zero_crossing_month": crossing,
    }


def export_figure_data(
    fit: TrendBreakFit,
    counterfactual: CounterfactualPath,
    series: MonthlySeries,
    path,
) -> None:
    """Write month, observed, fitted_pre, fitted_post, counterfactual columns.

    One row per month in the fit window union the projection horizon. The
    series must be in the same transform the fit was run on.
    """
    spec = fit.spec
    horizon = len(counterfactual.values) - 1
    t_end = max(spec.post_window - 1, horizon)
    t_obs, y_obs = series.to_arrays(spec.cutoff_month)
    observed = dict(zip(t_obs.astype(int).tolist(), map(repr, y_obs.tolist())))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["month", "observed", "fitted_pre", "fitted_post", "counterfactual"])
        for t in range(-spec.pre_window, t_end + 1):
            month = add_months(spec.cutoff_month, t)
            fitted_pre = ""
            fitted_post = ""
            if t <= spec.post_window - 1:
                if not spec.indicator(t):
                    fitted_pre = repr(fit.alpha0 + fit.alpha2 * t)
                else:
                    fitted_post = repr(
                        (fit.alpha0 + fit.alpha1) + (fit.alpha2 + fit.alpha3) * t
                    )
            cf = ""
            if 0 <= t <= horizon:
                cf = repr(counterfactual.values[t])
            writer.writerow([format_month(month), observed.get(t, ""), fitted_pre, fitted_post, cf])


def _figure_file(cell: str) -> str:
    """The file under figures/ that the trend cell ``series/transform/vintage`` writes."""
    return cell.replace("/", "_") + ".csv"


def _aggregation_span(config: RunConfig) -> tuple[date, date]:
    spec = config.trend_spec(LEVELS)
    starts, ends = [spec.window_start], [spec.window_end]
    if config.rdd is not None:
        starts.append(config.rdd.bandwidth_sample[0])
        ends.append(config.rdd.bandwidth_sample[1])
    return min(starts), max(ends)


def _audit(config: RunConfig, targets, records, categories, series_map) -> list[dict]:
    results = []
    spec = config.trend_spec(LEVELS)
    for audit in config.audits:
        with _stage("audit", audit.label):
            target, target_fit = targets[audit.label]
            reconstructed = series_map[(audit.series, audit.vintage)]
            fit = fit_trend_break(reconstructed, spec)
            comparison = compare_series(target, reconstructed, spec)
            record = {
                "label": audit.label,
                "series": audit.series,
                "vintage": audit.vintage,
                "correlation": comparison.correlation,
                "max_abs_diff": comparison.max_abs_diff,
                "n_overlap": comparison.n_overlap,
                "means": {"extracted": asdict(comparison.means_a), "reconstructed": asdict(comparison.means_b)},
                "coefficients": {
                    "extracted": _audit_coef(target_fit),
                    "reconstructed": _audit_coef(fit),
                },
                "vintage_search": None,
            }
            if audit.search is not None:
                cat = categories[audit.series]
                in_set = records.compress(cat.mask(records))  # in every period; the search sums no others
                search = search_vintage_date(in_set, target, audit.search.candidates(), cat, metric=audit.metric)
                record["vintage_search"] = {
                    "best": format_timestamp(search.best),
                    "metric": audit.metric,
                    "candidates": [
                        [format_timestamp(when), dist] for when, dist in search.candidates
                    ],
                }
            results.append(record)
    return results


def _audit_coef(fit: TrendBreakFit) -> dict:
    return {
        "alpha1": fit.alpha1,
        "alpha1_se": fit.se[1],
        "alpha1_p": fit.p_values[1],
        "alpha3": fit.alpha3,
        "alpha3_se": fit.se[3],
        "alpha3_p": fit.p_values[3],
    }


def run_pipeline(config: RunConfig, base_dir, out_dir=None, *, audit_only=False) -> tuple[dict, Path]:
    """Execute the stages in order and write the result bundle: results.json,
    tables/*.txt, audit.csv (when audits are configured) and
    figures/<series>_<transform>_<vintage>.csv.

    With ``audit_only`` it runs ``audit``'s subset: it aggregates only the
    audited cells (and reads no records without audits), fits no trend or
    discontinuity cell, and writes only audit.csv. The output directory, with
    ``tables/`` and ``figures/`` for ``run``, is made right after validation
    when anything will be written. Returns the results and that directory.
    """
    base_dir = Path(base_dir)
    config.validate(base_dir)
    out_path = Path(out_dir) if out_dir is not None else base_dir / config.output_dir
    fitted = () if audit_only else config.series  # the series whose cells are fitted
    if config.audits or fitted:
        with _stage("write", str(out_path)):
            out_path.mkdir(parents=True, exist_ok=True)
            names = ["audit.csv"] if config.audits else []
            if fitted:
                (out_path / "tables").mkdir(exist_ok=True)
                (out_path / "figures").mkdir(exist_ok=True)
                names += ["results.json", *(f"tables/{name}.txt" for name in TABLES)]
                names += [f"figures/{_figure_file(f'{s.label}/{tr}/{v.label}')}"
                          for s in fitted for v in config.vintages for tr in config.transforms]
            for path in filter(Path.exists, (out_path / name for name in names)):
                open(path, "r+b").close()  # a directory there fails before any input is read

    # a target the trend window cannot fit ends the run before the records are read
    targets = {}
    for audit in config.audits:
        with _stage("audit", audit.label):
            target = read_series_csv(base_dir / audit.target_file, SeriesMeta(transform=LEVELS, label=audit.label))
            targets[audit.label] = (target, fit_trend_break(target, config.trend_spec(LEVELS)))

    cells = {(a.series, a.vintage) for a in config.audits}
    cells |= {(s.label, v.label) for s in fitted for v in config.vintages}
    categories = {s.label: config.resolve_category_set(s.category_set) for s in config.series}
    records, series_map = None, {}
    if cells:
        with _stage("ingest", config.data_file):
            records = parse_records(base_dir / config.data_file)
    span = _aggregation_span(config)
    for vintage in config.vintages:
        labels = [s.label for s in config.series if (s.label, vintage.label) in cells]
        if not labels:
            continue
        kept = records if vintage.cutoff is None else apply_vintage(records, VintagePolicy(vintage.cutoff))
        for label in labels:
            with _stage("aggregate", f"{label}/{vintage.label}"):
                series_map[(label, vintage.label)] = aggregate_series(kept, categories[label], span, label=label)
        del kept  # before the next vintage's copy is made, so that two are never held

    tb = config.trend_break
    horizon = tb.post_window - 1 if tb.horizon is None else tb.horizon
    trend_records = []
    figure_jobs = []
    for sdef in fitted:
        for vintage in config.vintages:
            base = series_map[(sdef.label, vintage.label)]
            for transform in config.transforms:
                cell = f"{sdef.label}/{transform}/{vintage.label}"
                with _stage("trend_break", cell):
                    used = log_transform(base) if transform == LOG else base
                    fit = fit_trend_break(used, config.trend_spec(transform))
                    path = counterfactual_projection(fit, horizon)
                    trend_records.append(
                        _trend_record(sdef.label, transform, vintage.label, fit, path)
                    )
                    figure_jobs.append((_figure_file(cell), fit, path, used))

    rdd_records = []
    if config.rdd is not None:
        for sdef in fitted:
            base = series_map[(sdef.label, config.rdd.vintage)]
            used = log_transform(base) if config.rdd.transform == LOG else base
            for estimand in config.rdd.estimands:
                with _stage("rdd", f"{sdef.label}/{estimand}"):
                    fit = asdict(rd_estimate(used, config.rdd_spec(estimand)))
                    fit["h_months"], fit["b_months"] = fit.pop("h_used"), fit.pop("b_used")
                    where = {"series": sdef.label, "transform": config.rdd.transform}
                    rdd_records.append(where | {"vintage": config.rdd.vintage} | fit)

    audit_records = _audit(config, targets, records, categories, series_map)

    results = {
        "config": config.to_dict(),
        "layout": {
            "series": [s.label for s in config.series],
            "panels": [list(p) for p in config.resolved_panels()],
        },
        "trend_break": trend_records,
        "rdd": rdd_records,
        "audit": audit_records,
    }

    with _stage("write", str(out_path)):
        if fitted:
            payload = json.dumps(_jsonify(results), sort_keys=True, indent=2) + "\n"
            (out_path / "results.json").write_text(payload, encoding="utf-8")
            for name, text in render_tables(results).items():
                (out_path / "tables" / f"{name}.txt").write_text(text, encoding="utf-8")
            for name, fit, path, used in figure_jobs:
                export_figure_data(fit, path, used, out_path / "figures" / name)
        if audit_records:
            _write_audit_csv(audit_records, out_path / "audit.csv")
    return results, out_path


def _write_audit_csv(audit_records: list[dict], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        sides = [f"{side}_{column}" for side in AUDIT_SIDES for column in ("value", "se")]
        writer.writerow(["label", "statistic", *sides])
        for r in audit_records:
            for statistic, _, _, ex, rc in audit_rows(r):
                writer.writerow([r["label"], statistic, *_csv_side(ex), *_csv_side(rc)])
            if r["vintage_search"]:
                writer.writerow([r["label"], "best_vintage", r["vintage_search"]["best"], "", "", ""])


def _csv_side(side) -> list[str]:
    """A side of an audit row as its value and standard-error columns."""
    if side is None:
        return ["", ""]
    if isinstance(side, tuple):
        return [repr(float(side[0])), repr(float(side[1]))]
    return [repr(float(side)), ""]
