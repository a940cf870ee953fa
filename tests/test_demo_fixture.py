"""The committed demo target is what its generator computes from the
committed demo records."""

import importlib.util
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_committed_target_matches_its_generator(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in fixtures/
    spec = importlib.util.spec_from_file_location("make_demo_data", FIXTURES / "make_demo_data.py")
    make_demo_data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_demo_data)
    out = tmp_path / "demo_extracted_food.csv"
    assert make_demo_data.write_target(FIXTURES / "demo_records.csv", out) == 57
    assert out.read_bytes() == (FIXTURES / "demo_extracted_food.csv").read_bytes()
