"""The README's "Library use" block runs as written, so the documented
public surface names only functions that exist; its CLI synopsis lists the
flags the parser takes, its tables list the record fields and the config
keys the code has, and its series accessors are ``MonthlySeries``' public
members."""

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from breaklens import pipeline
from breaklens.cli import build_parser
from breaklens.series import MonthlySeries
from breaklens.trade_ingest import RECORD_FIELDS
from conftest import REPO_ROOT

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def test_library_use_block_runs_from_the_repo_root():
    block = README.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    done = subprocess.run(
        [sys.executable, "-c", block],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "rd_estimate" in block


def test_cli_block_lists_each_subcommands_flags():
    block = README.split("## CLI", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.splitlines():
        prog, command, *_ = line.split()
        assert prog == "breaklens", line
        documented[command] = set(re.findall(r"--[a-z][a-z-]*", line))
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.choices.items()
    }
    assert documented == options


def test_records_table_lists_each_field_with_its_dtype():
    table = README.split("**Records in memory**", 1)[1].split("|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = []
    for row in table.splitlines():
        _, names, dtype, _ = row.split("|")
        documented += [(name, re.search("`([^`]+)`", dtype)[1]) for name in re.findall("`([^`]+)`", names)]
    stored = [(name, "<U" if dtype is str else np.dtype(dtype).name) for _, name, dtype in RECORD_FIELDS]
    assert documented == [*stored, ("key", "int64")]


def test_series_accessors_are_the_public_members():
    sentence = README.split("**Series in memory**", 1)[1].split("Accessors: ", 1)[1].split(". ", 1)[0]
    # `len(series)` stands for __len__; a parenthesis after a name describes it
    documented = re.findall(r"`(\w+)[^`]*`", re.sub(r"\s\([^()]*\)", "", sentence))
    public = [name for name in vars(MonthlySeries) if not name.startswith("_")]
    assert "__len__" in vars(MonthlySeries)
    assert sorted(documented) == sorted(["len", *public])


def schema_keys(cls, prefix=""):
    """(JSON path, default as shown in the README) of every key in the schema."""
    for f in fields(cls):
        path = f"{prefix}{f.name}"
        if f.default is MISSING and f.default_factory is MISSING:
            default = "required"
        else:
            value = f.default_factory() if f.default is MISSING else f.default
            default = json.dumps(pipeline._dump(f.metadata["kind"], value))
        yield path, default
        kind = f.metadata["kind"]
        if isinstance(kind, list) and kind[-1] is ...:
            kind, path = kind[0], path + "[]"
        if is_dataclass(kind):
            yield from schema_keys(kind, path + ".")


def test_config_table_lists_each_key_with_its_default():
    rows = re.findall(r"^\| `([^`]+)` \| [^|]+ \| `?([^|`]+?)`? \|", README, re.M)
    assert rows == list(schema_keys(pipeline.RunConfig))
