"""What the benchmark measures: workloads, metrics and predicted effects.

BENCHMARK.json repeats the workload reasons and the metric lists; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

from tracer import HOT, LAYERS
from workloads import CASE_IDS

# Every pass of a run repeats the same operations, so percentiles are taken
# over the operations of a pass, each at its median over the passes.  The
# tail is the highest of PERCENTILES that leaves 10 operations beyond it.
MIN_PASSES = 2
PERCENTILES = (50, 75, 90, 95, 99)

WORKLOADS = {
    "lattice": {
        "ops": 273,
        "why": "First touch of each of 22 types pays a cold build_root_system (the tail); "
               "cached basis changes set the median; no polyhedra work. 273 ops/pass, tail p95",
    },
    "fans": {
        "ops": 102,
        "why": "Chamber fans, star subdivision, type-C colored fans: mostly feasible, covered_by "
               "cells and cached contains, on a few small root systems. 102 ops/pass, tail p90",
    },
    "isotropic": {
        "ops": 230,
        "why": "Fresh isotropic draws: inverse and mat_mul (orthogonal), int_rank (symplectic); "
               "no root system and no cache hit. 230 ops/pass, tail p95",
    },
    "cli": {
        "ops": 40,
        "why": "Each op is a fresh weylfans process (start, import, cold caches, jsonio), as a "
               "command-line user pays; 5 of 14 casebook cases per pass. 40 ops/pass, tail p75",
    },
}

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.2),
    ("op_p50_ms", "ms", "lower", 0.24),
    ("op_tail_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_rate", "ratio", "higher", 0.01),
)

RATIOS = (
    ("rootsys.build_root_system.miss_frac", "ratio", "lower"),
    ("lattice.to_basis.miss_frac", "ratio", "lower"),
    ("polyhedra.contains.miss_frac", "ratio", "lower"),
    ("linalg.feasible.empty_frac", "ratio", "lower"),
    ("linalg.feasible.vars_max", "count", "lower"),
    ("linalg.elim_entries", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run prints."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    for layer, names in HOT.items():
        for name in names:
            out += [(f"{layer}.{name}.calls", "count", "lower"), (f"{layer}.{name}.self_s", "s", "lower")]
    out += [(f"casebook.{case_id}.s", "s", "lower") for case_id in CASE_IDS]
    return out + list(RATIOS)


# Which end-to-end metric each layer metric should move, on which workload;
# "no change" is the prediction for a workload that bypasses the layer.
LAYER_MAP = (
    ("linalg.inverse, linalg.mat_mul", "run_s, op_p50_ms", "isotropic", "moves"),
    ("linalg.inverse, linalg.mat_mul", "run_s", "fans", "no change"),
    ("linalg.int_rank", "op_p50_ms", "isotropic", "moves"),
    ("linalg.int_rank", "op_p50_ms", "lattice", "no change"),
    ("linalg.feasible, polyhedra.covered_by, polyhedra.fan", "run_s", "fans", "moves"),
    ("linalg.feasible, polyhedra.covered_by, polyhedra.fan", "run_s", "lattice, isotropic", "no change"),
    ("polyhedra.contains, polyhedra.contains.miss_frac", "run_s", "fans", "moves"),
    ("polyhedra.contains, polyhedra.contains.miss_frac", "op_tail_ms", "cli", "moves"),
    ("rootsys.build_root_system, linalg.solve", "op_tail_ms", "lattice", "moves"),
    ("rootsys.build_root_system, linalg.solve", "op_p50_ms", "cli", "moves"),
    ("rootsys.build_root_system, linalg.solve", "run_s", "isotropic", "no change"),
    ("rootsys.weyl_enumerate, rootsys.subgroup_closure", "op_tail_ms", "lattice", "moves"),
    ("rootsys.weyl_enumerate, rootsys.subgroup_closure", "run_s", "fans", "moves"),
    ("lattice.to_basis, linalg.mat_vec", "op_p50_ms", "lattice", "moves"),
    ("lattice.to_basis, linalg.mat_vec", "op_p50_ms", "isotropic", "no change"),
    ("spherical.*", "op_tail_ms", "fans", "moves"),
    ("casebook.<case_id>.s, jsonio, cli", "op_p50_ms, op_tail_ms", "cli", "moves"),
    ("import time", "setup_s", "all", "moves"),
)


def tail_percentile(ops_per_pass: int) -> int:
    return max(p for p in PERCENTILES if ops_per_pass * (100 - p) / 100 >= 10)
