"""`tools/case_pairs.py` times a casebook case in fresh processes on two
source trees, alternating which goes first: run with this repository's
tree on both sides, it prints each side's raw times and median and finds
the two reports byte-equal; reports that differ stop it."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("case_pairs", ROOT / "tools" / "case_pairs.py")
case_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(case_pairs)


def test_pairs_on_one_tree():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "case_pairs.py"), src, src, "g2-surface", "--runs", "2"],
        capture_output=True,
        text=True,
        check=True,
    )
    out = json.loads(done.stdout)
    assert out["case"] == "g2-surface" and out["runs"] == 2 and out["reports_equal"] is True
    for side in ("a", "b"):
        times = out[side]["times_s"]
        assert out[side]["src"] == src and len(times) == 2 and all(t > 0 for t in times)
        assert out[side]["median_s"] == sum(times) / 2
    assert out["ratio_b_over_a"] == out["b"]["median_s"] / out["a"]["median_s"]


def test_reports_that_differ_stop_the_tool(monkeypatch):
    calls = []

    def run_once(src, case):
        calls.append(src)
        return 0.1, json.dumps({"tree": src})

    monkeypatch.setattr(case_pairs, "run_once", run_once)
    with pytest.raises(SystemExit, match="run 1: the two trees' g2-surface reports differ"):
        case_pairs.pairs("left", "right", "g2-surface", 3)
    assert calls == ["left", "right"]
