"""The run-config schema: any single bad value is a ConfigError or valid,
valid configs round-trip, drawn configs end in a named outcome, and
validation accepts exactly the discontinuity settings that fit."""

import copy
import csv
import functools
import io
import json
import signal
import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import breaklens.pipeline as pipeline
from breaklens.cli import main
from breaklens.errors import ConfigError, EstimationError
from breaklens.ols import SE_TYPES
from breaklens.pipeline import RunConfig
from breaklens.rdd_local_poly import KERNELS, VARIANCES, rd_estimate
from breaklens.replication_audit import DISTANCE_METRICS
from breaklens.series import TRANSFORMS, MonthlySeries
from breaklens.trade_ingest import BUILTIN_CATEGORY_SETS, aggregate_series, parse_records
from test_trade_ingest import ARABIC_INDIC, MUTATIONS
from util import set_path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DEMO = json.loads((FIXTURES / "demo_config.json").read_text(encoding="utf-8"))


# -- property tests ------------------------------------------------------------

# fixed examples, no example database and a bounded count keep tier-1 fast
# and repeatable
PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@contextmanager
def time_limit(seconds: float):
    """Turn a hang into a failure: raise TimeoutError after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: Month indices (year * 12 + month - 1) of 2012-01 and 2020-12, the months drawn.
FIRST, LAST = 2012 * 12, 2020 * 12 + 11


def month_text(i: int) -> str:
    return f"{i // 12:04d}-{i % 12 + 1:02d}"


def months():
    return st.integers(FIRST, LAST).map(month_text)


@st.composite
def rdd_sections(draw, labels, fits=False):
    """An ``rdd`` section. With ``fits``, each estimand's fit passes on every
    month of the sample: the cutoff lies at least p + 4 months inside each end
    of it, for the curvature fit, and a manual width is at least p + 3, for
    p + 2 weighted months before the cutoff, where p is the larger order."""
    if fits:
        level, slope = draw(st.none() | st.integers(0, 4)), draw(st.none() | st.integers(1, 4))
        margin = max(1 if level is None else level, 2 if slope is None else slope) + 4
        at = draw(st.integers(FIRST + margin, LAST - margin))
        cutoff = month_text(at)
        sample = [month_text(draw(st.integers(FIRST, at - margin))), month_text(draw(st.integers(at + margin, LAST)))]
        widths = st.integers(margin - 1, 40) | st.floats(margin - 1, 40.0)
    else:
        sample = sorted(draw(st.lists(months(), min_size=2, max_size=2)))
        cutoff = draw(months())
        widths = st.integers(1, 40) | st.floats(0.5, 40.0)
    section = {
        "cutoff_month": cutoff,
        "estimands": draw(st.lists(st.sampled_from(["level", "slope"]), max_size=2, unique=True)),
        "kernel": draw(st.sampled_from(KERNELS)),
        "bandwidth": draw(st.just("mse_optimal") | widths),
        "bandwidth_sample": sample,
        "transform": draw(st.sampled_from(TRANSFORMS)),
        "vintage": draw(st.sampled_from(labels)),
    }
    if fits:
        section["poly_order_level"], section["poly_order_slope"] = level, slope
    else:
        # orders past 4 reach rank-deficient fits and rounded-away kernel constants
        section["poly_order_level"] = draw(st.none() | st.integers(0, 4) | st.integers(0, 40))
        section["poly_order_slope"] = draw(st.none() | st.integers(1, 4) | st.integers(1, 40))
    section["pilot_factor"] = draw(st.floats(1.0, 3.0) | st.integers(1, 3))
    section["variance"] = draw(st.sampled_from(VARIANCES))
    return section


#: Text a config string may hold: no NUL and no lone surrogate.
CONFIG_TEXT = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\0"), min_size=1, max_size=8)


@st.composite
def demo_configs(draw, valid=True):
    """Canonical JSON of a config on the demo's files. With ``valid`` it loads
    and validates against the fixtures; without, its ``rdd`` section and
    ``output_dir`` are drawn as widely as their JSON types allow, so the fit
    check and the text check may reject them."""
    raw = copy.deepcopy(DEMO)
    labels = [v["label"] for v in raw["vintages"]]
    tb = raw["trend_break"]
    tb["pre_window"] = draw(st.integers(3, 60))
    tb["post_window"] = draw(st.integers(3, 40))
    tb["treat_cutoff_as_post"] = draw(st.booleans())
    tb["se_type"] = draw(st.sampled_from(SE_TYPES))
    tb["hac_lags"] = draw(st.none() | st.integers(0, 12))
    tb["horizon"] = draw(st.none() | st.integers(0, 60))
    raw["transforms"] = draw(st.lists(st.sampled_from(TRANSFORMS), min_size=1, max_size=2, unique=True))
    pairs = st.tuples(st.sampled_from(raw["transforms"]), st.sampled_from(labels)).map(list)
    raw["panels"] = draw(st.none() | st.lists(pairs, max_size=3, unique_by=tuple))
    raw["rdd"] = draw(st.none() | rdd_sections(labels, fits=valid))
    audit = raw["audits"][0]
    audit["metric"] = draw(st.sampled_from(DISTANCE_METRICS))
    if draw(st.booleans()):
        step = draw(st.integers(1, 30))
        start = draw(st.dates(date(2019, 1, 1), date(2021, 12, 31)))
        end = start + timedelta(days=step * draw(st.integers(1, 10)))
        audit["search"] = {"start": start.isoformat(), "end": end.isoformat(), "step_days": step}
    else:
        audit["search"] = None
    codes = st.integers(1, 99).map("{:02d}".format)
    raw["category_sets"] = draw(
        st.dictionaries(st.sampled_from(["cereals", "oils", "x"]), st.lists(codes, min_size=1, max_size=4, unique=True))
    )
    raw["output_dir"] = draw(CONFIG_TEXT if valid else st.text(min_size=1, max_size=8))
    raw["seed"] = draw(st.none() | st.integers())
    return raw


def canonical(raw) -> str:
    return json.dumps(raw, sort_keys=True)


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(demo_configs())
def test_valid_configs_round_trip(raw):
    config = RunConfig.from_dict(raw)
    config.validate(FIXTURES)
    assert RunConfig.from_dict(config.to_dict()) == config
    assert canonical(config.to_dict()) == canonical(raw)


#: Label text, with the characters and lengths that cannot name a file or be
#: written as UTF-8 drawn often: NUL, a lone surrogate, "/" and 300 characters.
LABELS = st.lists(
    st.text(min_size=1, max_size=4) | st.sampled_from(["\0", "\ud800", "/", "x" * 300]), min_size=1, max_size=3
).map("".join)


@st.composite
def relabeled_configs(draw):
    """A config drawn as widely as ``demo_configs(valid=False)`` draws, whose
    series and vintage labels may be redrawn, with every reference to them
    following."""
    raw = draw(demo_configs(valid=False))
    renamed = {}
    for entry in raw["series"] + raw["vintages"]:
        if draw(st.booleans()):
            renamed[entry["label"]] = entry["label"] = draw(LABELS)
    def follow(label):
        return renamed.get(label, label)

    audit = raw["audits"][0]
    audit["series"], audit["vintage"] = follow(audit["series"]), follow(audit["vintage"])
    if raw["rdd"]:
        raw["rdd"]["vintage"] = follow(raw["rdd"]["vintage"])
    if raw["panels"]:
        raw["panels"] = [[transform, follow(vintage)] for transform, vintage in raw["panels"]]
    return raw


EXIT_PREFIXES = {1: "config error: ", 2: "data error: ", 3: "estimation error: "}


def run_cli(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, with warnings silenced."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        with warnings.catch_warnings(), time_limit(5.0):
            warnings.simplefilter("ignore")
            code = main(argv)
    return code, err.getvalue()


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(relabeled_configs())
def test_drawn_configs_run_to_a_named_outcome(raw):
    raw["data_file"] = str(FIXTURES / raw["data_file"])
    raw["audits"][0]["target_file"] = str(FIXTURES / raw["audits"][0]["target_file"])

    def run_counting_parses(argv):
        with mock.patch.object(pipeline, "parse_records", wraps=parse_records) as parse:
            return (*run_cli(argv), parse.call_count)

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        outcomes = [run_counting_parses(["run", "--config", str(config), "--out", str(Path(tmp) / "out")])]
        # audit writes under output_dir, which no flag overrides, and a drawn
        # one may name any directory
        raw["output_dir"] = "out"
        config.write_text(json.dumps(raw), encoding="utf-8")
        outcomes.append(run_counting_parses(["audit", "--config", str(config)]))
    for code, err, parses in outcomes:
        assert_named_outcome(code, err)
        # the audit target is fitted before the records are read
        if err.startswith("estimation error: [audit:") and " fit window is " in err:
            assert parses == 0, err


def assert_named_outcome(code: int, err: str) -> None:
    """Exit 0 with no error line, or 1, 2 or 3 with one line under the
    matching prefix; never a traceback."""
    assert "Traceback" not in err
    named = [line for line in err.splitlines() if line.startswith(tuple(EXIT_PREFIXES.values()))]
    if code == 0:
        assert not named, err
    else:
        assert len(named) == 1 and named[0].startswith(EXIT_PREFIXES[code]), (code, err)


#: ``--vintage`` values: valid ones, ones at the edges of years 1-9999, and garbage.
VINTAGES = (
    st.sampled_from(["2020-10-01T00:00:00Z", "2018-06-01", "2020-10-01T00:00:00+05:00", "2015-01-01T00:00:00z"])
    | st.sampled_from(
        ["0001-01-01T00:00:00Z", "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59Z", "9999-12-31T23:59:59-01:00"]
    )
    | st.text(max_size=12)
    | st.sampled_from(["-1", "--series", ""])
)


with open(FIXTURES / "demo_records.csv", newline="", encoding="utf-8") as fh:
    DEMO_RECORDS = list(csv.reader(fh))


@st.composite
def ingest_arguments(draw):
    """``breaklens ingest`` flags but ``--data`` and ``--out``: a built-in or
    hostile ``--series`` and an absent, valid, edge or garbage ``--vintage``;
    and the records, None for the demo file or its rows with one mutated as a
    ``MUTATIONS`` case mutates it."""
    # mostly a built-in name, so that most draws reach the vintage and the records
    hostile = LABELS | st.text(max_size=8) | st.sampled_from(["-x", "--out", "-"])
    series = draw(hostile if draw(st.integers(0, 3)) == 0 else st.sampled_from(sorted(BUILTIN_CATEGORY_SETS)))
    vintage = draw(st.none() | VINTAGES)
    flags = ["--series", series] + ([] if vintage is None else ["--vintage", vintage])
    return flags, draw(st.none() | mutated_records())


@st.composite
def mutated_records(draw):
    """The demo records' rows with one mutated as a ``MUTATIONS`` case mutates it."""
    header, *rows = [row.copy() for row in DEMO_RECORDS]
    field, mutate = draw(st.sampled_from(MUTATIONS))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    row[header.index(field)] = mutate(row[header.index(field)])
    return [header, *rows]


def write_rows(path: Path, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(ingest_arguments())
def test_drawn_ingest_arguments_run_to_a_named_outcome(drawn):
    flags, rows = drawn
    with tempfile.TemporaryDirectory() as tmp:
        data = FIXTURES / "demo_records.csv" if rows is None else write_rows(Path(tmp) / "records.csv", rows)
        code, err = run_cli(["ingest", "--data", str(data), *flags, "--out", str(Path(tmp) / "series.csv")])
    assert_named_outcome(code, err)


DEMO_TARGET = (FIXTURES / "demo_extracted_food.csv").read_text(encoding="utf-8").splitlines()

#: One data line of a series CSV, split into its month and value, and what is
#: done to it; a lone surrogate is written as the byte it escapes.
SERIES_MUTATIONS = (
    lambda month, value: f"{month},nan",
    lambda month, value: f"{month},-1",
    lambda month, value: f"{month},1_0",
    lambda month, value: f"{month},{value.translate(ARABIC_INDIC)}",
    lambda month, value: f"{month.translate(ARABIC_INDIC)},{value}",
    lambda month, value: f"2015-13,{value}",
    lambda month, value: "",  # a skipped month
    lambda month, value: f"{month},{value}\n{month},{value}",  # a repeated month
    lambda month, value: month,
    lambda month, value: f"{month},{value}\udcff",
)


@st.composite
def mutated_target(draw):
    """The demo audit target's text with one data line mutated by a ``SERIES_MUTATIONS`` case."""
    header, *lines = DEMO_TARGET
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = draw(st.sampled_from(SERIES_MUTATIONS))(*lines[i].split(","))
    return "\n".join([header, *lines]) + "\n"


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(st.sampled_from(["run", "audit"]), st.one_of(mutated_records(), mutated_target()))
def test_mutated_input_files_run_to_a_named_outcome(command, mutated):
    raw = copy.deepcopy(DEMO)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        raw["data_file"] = str(FIXTURES / raw["data_file"])
        raw["audits"][0]["target_file"] = str(FIXTURES / raw["audits"][0]["target_file"])
        if isinstance(mutated, list):
            raw["data_file"] = str(write_rows(tmp / "records.csv", mutated))
        else:
            target = tmp / "target.csv"
            target.write_text(mutated, encoding="utf-8", errors="surrogateescape")
            raw["audits"][0]["target_file"] = str(target)
        config = tmp / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        argv = {
            "run": ["run", "--config", str(config), "--out", str(tmp / "out")],
            "audit": ["audit", "--config", str(config)],
        }[command]
        code, err = run_cli(argv)
    assert_named_outcome(code, err)


@functools.cache
def demo_levels() -> list[MonthlySeries]:
    """The levels series of each demo series at the latest vintage, over
    every month a drawn sample can hold."""
    config = RunConfig.from_dict(DEMO)
    records = parse_records(FIXTURES / config.data_file)
    span = (date(2012, 1, 1), date(2020, 12, 1))
    return [aggregate_series(records, config.resolve_category_set(s.category_set), span) for s in config.series]


@st.composite
def rdd_edges(draw):
    """An ``rdd`` section on the demo's levels, drawn about the edges of what
    a fit accepts: sample ends near p + 4 months from the cutoff, manual
    widths near p + 1, and orders up to where the fits break down."""
    at = draw(st.integers(FIRST + 12, LAST - 12))
    ends = st.integers(-2, 12) | st.integers(-2, 100)
    start, end = max(at - draw(ends), FIRST), min(at + draw(ends), LAST)
    return {
        "cutoff_month": month_text(at),
        "bandwidth_sample": [month_text(i) for i in sorted([start, end])],
        "kernel": draw(st.sampled_from(KERNELS)),
        "bandwidth": draw(st.just("mse_optimal") | st.integers(1, 12) | st.floats(0.5, 40.0)),
        "poly_order_level": draw(st.none() | st.integers(0, 6) | st.integers(0, 40)),
        "poly_order_slope": draw(st.none() | st.integers(1, 6) | st.integers(1, 40)),
        "pilot_factor": draw(st.floats(1.0, 3.0)),
        "variance": draw(st.sampled_from(VARIANCES)),
        "estimands": ["level", "slope"],
        "transform": "levels",
    }


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(rdd_edges())
# the uniform kernel's order-16 constants are lost to rounding
@example(rdd=DEMO["rdd"] | {"kernel": "uniform", "poly_order_level": 16, "transform": "levels"})
def test_validation_accepts_exactly_the_rdd_settings_that_fit(rdd):
    """On levels, every month of the sample is in the series a run fits, so
    validation's fit on the sample's months fails exactly when a run's does."""
    raw = copy.deepcopy(DEMO)
    raw["rdd"] = rdd
    config = RunConfig.from_dict(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            config.validate(FIXTURES)
            accepted = True
        except ConfigError:
            accepted = False
        fits = True
        for series in demo_levels():
            for estimand in config.rdd.estimands:
                try:
                    rd_estimate(series, config.rdd_spec(estimand))
                except EstimationError:
                    fits = False
    assert accepted == fits


def test_validation_of_the_widest_sample_is_linear_under_nearest_neighbor():
    """Every month the ``MONTH`` kind accepts (119,988 of them): a
    nearest-neighbor variance on them is quadratic, a check needs none."""
    raw = copy.deepcopy(DEMO)
    raw["rdd"].update(bandwidth_sample=["0001-01", "9999-12"], variance="nearest_neighbor")
    with time_limit(3.0):
        RunConfig.from_dict(raw).validate(FIXTURES)


def leaf_paths(value, path="") -> list[str]:
    """JSON paths of the scalars and empty containers in a config."""
    if isinstance(value, dict) and value:
        return [p for k, v in value.items() for p in leaf_paths(v, f"{path}.{k}" if path else k)]
    if isinstance(value, list) and value:
        return [p for i, v in enumerate(value) for p in leaf_paths(v, f"{path}[{i}]")]
    return [path]


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(
        [0.5, "2017-08", "201708", "2020-10-01", "2020-10-01T00:00:00Z", "levels",
         "log", "level", "slope", "mse_optimal", "latest", "anova_food", "demo_records.csv"]
    )
)


@pytest.mark.parametrize("path", leaf_paths(DEMO))
@settings(PROPERTY_SETTINGS, max_examples=8)
@given(value=SCALARS | st.lists(SCALARS, max_size=3))
@example(value=None)
@example(value=0)
@example(value=-1)
@example(value="")
@example(value=[])
def test_any_single_leaf_change_validates_or_is_a_config_error(path, value):
    raw = copy.deepcopy(DEMO)
    set_path(raw, path, value)
    with time_limit(5.0):
        try:
            RunConfig.from_dict(raw).validate(FIXTURES)
        except ConfigError:
            pass
