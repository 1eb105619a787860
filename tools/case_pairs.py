"""Time one casebook case in paired fresh processes on two source trees.

Each run starts one Python process per tree, the first tree alternating
from run to run (A then B, B then A, ...).  A process imports the package
from its tree, runs the case once in process with
``casebook.run_case(case, 0)`` and times that call with
``time.perf_counter``; interpreter start and imports are not timed.  The
two trees must give byte-equal ``to_json()`` reports, serialized with
``json.dumps``, in every run, or the tool stops with exit 1.  It prints one
JSON object: each side's median and raw times in seconds, and the ratio of
the medians, B over A.

Run it from anywhere as:

    python tools/case_pairs.py SRC_A SRC_B CASE [--runs N]

where SRC_A and SRC_B are directories holding the ``weylfans`` package
(a checkout's ``src``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = """
import json, sys, time
from weylfans import casebook
start = time.perf_counter()
report = casebook.run_case(sys.argv[1], 0)
elapsed = time.perf_counter() - start
print(json.dumps({"s": elapsed, "report": json.dumps(report.to_json())}))
"""


def run_once(src: str, case: str) -> tuple[float, str]:
    """(seconds, report JSON) of one fresh process on the tree at src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, case], capture_output=True, text=True, env=env, check=True
    )
    out = json.loads(done.stdout.splitlines()[-1])
    return out["s"], out["report"]


def pairs(src_a: str, src_b: str, case: str, runs: int) -> dict:
    times: dict[str, list[float]] = {"a": [], "b": []}
    trees = {"a": src_a, "b": src_b}
    for i in range(runs):
        reports = {}
        for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
            elapsed, reports[side] = run_once(trees[side], case)
            times[side].append(round(elapsed, 6))
        if reports["a"] != reports["b"]:
            raise SystemExit(f"run {i + 1}: the two trees' {case} reports differ")
    med = {side: statistics.median(ts) for side, ts in times.items()}
    return {
        "case": case,
        "runs": runs,
        "a": {"src": src_a, "median_s": med["a"], "times_s": times["a"]},
        "b": {"src": src_b, "median_s": med["b"], "times_s": times["b"]},
        "ratio_b_over_a": med["b"] / med["a"],
        "reports_equal": True,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("case")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print(json.dumps(pairs(args.src_a, args.src_b, args.case, args.runs), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
