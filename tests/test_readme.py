"""The README's "Library use" block runs as written, so the documented
public surface names only functions that exist."""

import os
import subprocess
import sys

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
