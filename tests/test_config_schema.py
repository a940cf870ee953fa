"""The run-config schema: any single bad value is a ConfigError or valid,
valid configs round-trip, and the README documents each key."""

import copy
import json
import re
import signal
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import breaklens.pipeline as pipeline
from breaklens.errors import ConfigError
from breaklens.ols import SE_TYPES
from breaklens.pipeline import RunConfig
from breaklens.rdd_local_poly import KERNELS, VARIANCES
from breaklens.replication_audit import DISTANCE_METRICS
from breaklens.series import TRANSFORMS
from util import set_path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
README = Path(__file__).resolve().parent.parent / "README.md"
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


def months():
    return st.builds("{:04d}-{:02d}".format, st.integers(2012, 2020), st.integers(1, 12))


@st.composite
def valid_configs(draw):
    """Canonical JSON of a config that loads and validates against the fixtures."""
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
    if draw(st.booleans()):
        start, end = sorted(draw(st.lists(months(), min_size=2, max_size=2)))
        raw["rdd"] = {
            "cutoff_month": draw(months()),
            "estimands": draw(st.lists(st.sampled_from(["level", "slope"]), max_size=2, unique=True)),
            "kernel": draw(st.sampled_from(KERNELS)),
            "bandwidth": draw(
                st.just("mse_optimal") | st.integers(1, 40) | st.floats(0.5, 40.0)
            ),
            "bandwidth_sample": [start, end],
            "transform": draw(st.sampled_from(TRANSFORMS)),
            "vintage": draw(st.sampled_from(labels)),
            "poly_order_level": draw(st.none() | st.integers(0, 4)),
            "poly_order_slope": draw(st.none() | st.integers(1, 4)),
            "pilot_factor": draw(st.floats(1.0, 3.0) | st.integers(1, 3)),
            "variance": draw(st.sampled_from(VARIANCES)),
        }
    else:
        raw["rdd"] = None
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
    raw["output_dir"] = draw(st.text(min_size=1, max_size=8))
    raw["seed"] = draw(st.none() | st.integers())
    return raw


def canonical(raw) -> str:
    return json.dumps(raw, sort_keys=True)


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(valid_configs())
def test_valid_configs_round_trip(raw):
    config = RunConfig.from_dict(raw)
    config.validate(FIXTURES)
    assert RunConfig.from_dict(config.to_dict()) == config
    assert canonical(config.to_dict()) == canonical(raw)


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


# -- documentation --------------------------------------------------------------


def schema_keys(cls, prefix=""):
    """(JSON path, default as shown in the README) of every key in the schema."""
    for f in fields(cls):
        path = f"{prefix}{f.name}"
        if f.default is not MISSING:
            default = json.dumps(pipeline._dump(f.metadata["kind"], f.default))
        elif f.default_factory is not MISSING:
            default = json.dumps(f.default_factory())
        else:
            default = "required"
        yield path, default
        kind = f.metadata["kind"]
        if isinstance(kind, list) and kind[-1] is ...:
            kind, path = kind[0], path + "[]"
        if is_dataclass(kind):
            yield from schema_keys(kind, path + ".")


def test_readme_field_table_matches_schema():
    rows = re.findall(r"^\| `([^`]+)` \| [^|]+ \| `?([^|`]+?)`? \|", README.read_text(), re.M)
    assert dict(rows) == dict(schema_keys(RunConfig))
