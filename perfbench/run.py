"""weylfans benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The load is a closed loop from this one
process: it starts one child interpreter at a time (perfbench/child.py),
each child runs one pass, the workload's whole operation stream made from
the seed, and passes repeat until S seconds have gone, at least
``spec.MIN_PASSES`` times.  Every child starts cold, as every weylfans
command does.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` untraced and traced passes alternate and the last line holds
the per-layer metrics.  The line before it records the context: host,
seed, operation counts, output digest and the predicted effects.  Run
artifacts go to .perfbench_out/ in the working directory.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spec
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170  # the whole run, child processes included


class HarnessError(Exception):
    """A pass could not run at all (not an operation failure)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_pass(root: str, workload: str, seed: int, traced: bool, pass_dir: str, deadline: float) -> dict:
    os.makedirs(pass_dir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(traced)), "--dir", pass_dir,
    ]
    with open(os.path.join(pass_dir, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
            line = proc.stdout.readline() if readable else b""
            ready = time.perf_counter()
            proc.wait(timeout=max(0.0, deadline - ready))
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{workload} pass passed the {DEADLINE_S} s deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if line.strip() != b"READY" or proc.returncode != 0:
        with open(os.path.join(pass_dir, "stderr.txt"), "rb") as err:
            tail = err.read()[-2000:].decode(errors="replace")
        raise HarnessError(f"{workload} pass exited {proc.returncode}:\n{tail}")
    with open(os.path.join(pass_dir, "result.json"), encoding="utf-8") as handle:
        result = json.load(handle)
    # times in reference seconds: scaled by the host speed the child probed
    result["op_s"] = [t * f for t, f in zip(result["latencies_s"], result["speed"])]
    result.update(setup_s=(ready - start) * result["setup_speed"], traced=traced, dir=pass_dir)
    return result


def op_medians(passes: list[dict]) -> list[float]:
    """Each operation's median time over the passes, in reference seconds."""
    return [statistics.median(times) for times in zip(*(p["op_s"] for p in passes))]


def trace_totals(pass_dir: str, speed: list[float]) -> dict:
    """Calls, self time and counters of one traced pass, over all its processes."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    cases: dict[str, float] = {}
    for path in sorted(glob.glob(os.path.join(pass_dir, "spans-*.json"))):
        doc = tracer.load(path)
        for name, (n, seconds) in tracer.self_times(doc["spans"], speed).items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + seconds
        for key, value in doc["counters"].items():
            merge = max if key.endswith("vars_max") else int.__add__
            counters[key] = merge(counters.get(key, 0), value)
        cases.update({c: seconds * speed[op] for c, (seconds, op) in doc["case_seconds"].items()})
    return {"calls": calls, "self_s": self_s, "counters": counters, "cases": cases}


def layer_metrics(totals: dict) -> dict[str, float]:
    calls, self_s, counters = totals["calls"], totals["self_s"], totals["counters"]
    out: dict[str, float] = {}
    for layer in tracer.LAYERS:
        names = [n for n in calls if n.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(calls[n] for n in names)
        out[f"{layer}.self_s"] = sum(self_s[n] for n in names)
    for layer, fns in tracer.HOT.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for case_id in workloads.CASE_IDS:
        out[f"casebook.{case_id}.s"] = totals["cases"].get(case_id, 0.0)

    def frac(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    for name in tracer.MISS_KEYS:
        out[f"{name}.miss_frac"] = frac(counters.get(f"{name}.misses", 0), calls.get(name, 0))
    out["linalg.feasible.empty_frac"] = frac(counters.get("linalg.feasible.empty", 0), calls.get("linalg.feasible", 0))
    out["linalg.feasible.vars_max"] = counters.get("linalg.feasible.vars_max", 0)
    out["linalg.elim_entries"] = counters.get("linalg.elim_entries", 0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops the processes it started (see run_pass)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    src = os.path.join(root, "src", "weylfans")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"perfbench: no weylfans sources at {src}; run from the repository root", file=sys.stderr)
        return 2
    # one core for this process and every child it starts, so the speed
    # probes a child takes run on the core its operations run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # build: byte-compile once, so no pass pays compilation in its set-up
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    out_root = os.path.join(root, ".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    passes: list[dict] = []
    try:
        while True:
            plain = sum(not p["traced"] for p in passes)
            traced = len(passes) - plain
            done = plain >= spec.MIN_PASSES and (not args.trace or traced >= spec.MIN_PASSES)
            if done and time.perf_counter() - start >= args.seconds:
                break
            traced_next = bool(args.trace) and len(passes) % 2 == 1
            pass_dir = os.path.join(out_root, f"pass{len(passes)}")
            passes.append(run_pass(root, args.workload, args.seed, traced_next, pass_dir, deadline))
        sweep = None
        if args.trace and args.workload == "cli":
            sweep = run_pass(root, "cli-sweep", args.seed, True, os.path.join(out_root, "sweep"), deadline)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    runs = passes + ([sweep] if sweep else [])
    attempted = sum(p["ops"] for p in runs)
    failed = sum(len(p["errors"]) for p in runs)
    digests = {p["output_sha256"] for p in passes}
    tail = spec.tail_percentile(plain[0]["ops"])
    context = {
        "workload": args.workload,
        "why": spec.WORKLOADS[args.workload]["why"],
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "ops_per_pass": plain[0]["ops"],
        "passes": len(plain),
        "traced_passes": len(traced),
        "tail_percentile": tail,
        "output_sha256": digests.pop() if len(digests) == 1 else sorted(digests),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": [e for p in runs for e in p["errors"].values()][:10],
        "layer_map": [dict(zip(("layer", "metric", "workloads", "prediction"), row)) for row in spec.LAYER_MAP],
    }
    if args.trace:
        totals = [trace_totals(p["dir"], p["speed"]) for p in traced]
        per_pass = [layer_metrics(t) for t in totals]
        if sweep:
            sweep_cases = trace_totals(sweep["dir"], sweep["speed"])["cases"]
            for m in per_pass:
                m.update({f"casebook.{c}.s": s for c, s in sweep_cases.items()})
            context["sweep_sha256"] = sweep["output_sha256"]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_frac"] = sum(op_medians(traced)) / sum(op_medians(plain)) - 1
        counts = [n for n in per_pass[0] if n.endswith((".calls", "_frac", ".vars_max", ".elim_entries"))]
        context["counts_repeat"] = all(len({m[n] for m in per_pass}) == 1 for n in counts)
        self_s = {n: statistics.median(t["self_s"].get(n, 0.0) for t in totals) for n in totals[0]["self_s"]}
        context["top_self_s"] = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec.per_layer()}
    else:
        op_s = op_medians(plain)
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "run_s": sum(op_s),
            "op_p50_ms": percentile(op_s, 50) * 1000,
            "op_tail_ms": percentile(op_s, tail) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "success_rate": 1 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in spec.END_TO_END}

    result = {
        "correct": failed == 0 and isinstance(context["output_sha256"], str),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_root, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump({"context": context, "result": result}, handle, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
