"""The README's "Library use" block runs as written, so the documented
public surface names only functions that exist, and its CLI synopsis lists
the flags the parser takes."""

import argparse
import os
import re
import subprocess
import sys

from breaklens.cli import build_parser
from conftest import REPO_ROOT


def test_library_use_block_runs_from_the_repo_root():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
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
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
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
