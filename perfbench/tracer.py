"""Span tracing for the traced benchmark run, applied from outside the package.

`install` wraps the public functions of every weylfans module and rebinds
each wrapper wherever the package bound the original, including names that
sibling modules took with ``from .linalg import ...``, so calls made inside
the package are seen.  Elementwise helpers stay unwrapped: they run hundreds
of thousands of times per pass and their time lands in their callers' self
time.

A span is ``(name, start, end, parent, op)``.  Spans are recorded only while
an operation is active (``Tracer.op`` is set), kept in memory and written
once, when the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = (
    "linalg", "rootsys", "lattice", "polyhedra", "toric",
    "spherical", "isotropic", "casebook", "jsonio", "cli",
)

# per-element helpers, left unwrapped to keep the trace coarse-grained
ELEMENTWISE = {
    "linalg": {"dot", "vadd", "vsub", "vscale", "vneg", "qv", "qm", "transpose", "is_zero_vector"},
    "jsonio": {"fraction_to_str", "str_to_fraction"},
}

HOT = {
    "linalg": ("inverse", "solve", "mat_mul", "mat_vec", "det", "rank", "nullspace",
               "int_rank", "feasible", "smith_normal_form", "minors_gcd"),
    "rootsys": ("build_root_system", "weyl_enumerate", "subgroup_closure", "longest_element"),
    "lattice": ("to_basis",),
    "polyhedra": ("contains", "fan", "covered_by", "is_complete", "star_subdivision"),
    "toric": ("weyl_chamber_fan",),
    "spherical": ("colored_fan_from_tops", "blowup_chain_fans", "extends_to_morphism"),
    "isotropic": ("random_maximal_isotropic", "intersection_invariant"),
}

# entry points into exact elimination; linalg.elim_entries sums the
# rows x cols of the matrix each call receives
ELIMINATION = ("rank", "det", "inverse", "solve", "nullspace", "int_rank",
               "smith_normal_form", "minors_gcd")

# first-call-per-key counters: span name -> key of the call
MISS_KEYS = {
    "rootsys.build_root_system": lambda a: str(a[0]).strip().upper(),
    "lattice.to_basis": lambda a: (a[0].rs.label, a[1]),
    "polyhedra.contains": lambda a: (a[0].ambient_dim, a[0].gens, a[0].lattice),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.seen: dict[str, set] = {name: set() for name in MISS_KEYS}
        self.misses = {name: 0 for name in MISS_KEYS}
        self.feasible_empty = 0
        self.feasible_vars_max = 0
        self.elim_entries = 0
        self.case_seconds: dict[str, list] = {}  # case id -> [seconds, op]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = self._hook_for(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)
            if hook is not None:
                hook(args, result, end - start)
            return result

        return wrapper

    def _hook_for(self, name: str):
        if name in MISS_KEYS:
            key_of, seen = MISS_KEYS[name], self.seen[name]

            def miss(args, result, seconds):
                key = key_of(args)
                if key not in seen:
                    seen.add(key)
                    self.misses[name] += 1

            return miss
        if name == "linalg.feasible":
            def feasible(args, result, seconds):
                num_vars, eqs, ineqs = args
                self.feasible_empty += result is None
                self.feasible_vars_max = max(self.feasible_vars_max, num_vars)
                self.elim_entries += (len(eqs) + len(ineqs)) * num_vars

            return feasible
        if name.startswith("linalg.") and name[7:] in ELIMINATION:
            def entries(args, result, seconds):
                m = args[0]
                self.elim_entries += len(m) * len(m[0]) if len(m) else 0

            return entries
        if name == "casebook.run_case":
            def case(args, result, seconds):
                self.case_seconds[result.case_id] = [seconds, self.op]

            return case
        return None

    def dump(self, path: str) -> None:
        """Write the spans and counters of this process, once."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[index[n], start, end, parent, op] for n, start, end, parent, op in self.spans],
            "counters": self.counters(),
            "case_seconds": self.case_seconds,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))

    def counters(self) -> dict:
        out = {f"{name}.misses": n for name, n in self.misses.items()}
        out["linalg.feasible.empty"] = self.feasible_empty
        out["linalg.feasible.vars_max"] = self.feasible_vars_max
        out["linalg.elim_entries"] = self.elim_entries
        return out


def install(tracer: Tracer) -> None:
    """Wrap every public function of the package's layers in place."""
    import weylfans  # noqa: F401  (loads every layer but the cli)
    import weylfans.cli  # noqa: F401

    package = [m for name, m in sys.modules.items() if name == "weylfans" or name.startswith("weylfans.")]
    for layer in LAYERS:
        module = sys.modules[f"weylfans.{layer}"]
        skip = ELEMENTWISE.get(layer, set())
        for attr, fn in list(vars(module).items()):
            if (
                attr.startswith("_")
                or attr in skip
                or not isinstance(fn, types.FunctionType)
                or fn.__module__ != module.__name__
            ):
                continue
            wrapper = tracer.wrap(f"{layer}.{attr}", fn)
            for other in package:
                for name, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, name, wrapper)


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    names = doc["names"]
    doc["spans"] = [(names[i], start, end, parent, op) for i, start, end, parent, op in doc["spans"]]
    return doc


def self_times(spans, speed=None) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name.

    A span's self time is its duration minus the time its direct children
    cover.  Spans of one process nest without overlap, so that is the sum of
    the children's durations, which stays right when a function (such as
    ``feasible``) calls itself: each level keeps only its own time.  With
    ``speed`` (a factor per operation id) self times are scaled by the
    factor of their operation.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _, op) in enumerate(spans):
        calls, seconds = out.get(name, (0, 0.0))
        scale = 1.0 if speed is None else speed[op]
        out[name] = (calls + 1, seconds + ((end - start) - covered[i]) * scale)
    return out
