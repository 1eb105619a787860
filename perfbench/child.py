"""One benchmark pass in a fresh interpreter.

    python perfbench/child.py --workload W --seed N --trace 0|1 --dir D

Imports weylfans, makes the inputs from the seed and prints ``READY``; the
parent times set-up from spawning this process to that line.  Then it runs
the operation stream, timing each operation, and only after the stream
checks every answer and digests the outputs, so neither lands in the timed
stream.  The pass result (and, when traced, the spans) is written to D once,
at the end.

A shared host can change speed by 1.8x for tens of seconds at a time
(other tenants on the same cores), which swamps any code change.  So the
pass also times two fixed loops that do not touch weylfans (``PROBES``), at
the start and then every PROBE_EVERY_S seconds between operations, and gives
every operation a speed factor from the probes on either side of it (see
``speed``).  Times scaled by it are in reference seconds: the time the work
takes on a host where the probe loops take their reference times.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import signal
import sys
import time
from fractions import Fraction

PROBE_EVERY_S = 0.5


def _fraction_loop() -> None:
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)


def _tuple_dict_loop() -> None:
    seen: dict = {}
    for i in range(2000):
        key = (i % 61, i % 17, (i * 7) % 13)
        seen[key] = seen.get(key, 0) + 1
        tuple(sorted(key))


# each probe loop with its time on the reference host
PROBES = ((_fraction_loop, 0.0035), (_tuple_dict_loop, 0.0013))


def probe() -> list[float]:
    """Seconds each probe loop takes on the host right now.

    Each is the best of two runs, with the cyclic garbage collector off so
    that a collection of the pass's own heap is not charged to the probe.
    """
    gc.disable()
    try:
        out = []
        for loop, _ in PROBES:
            best = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                loop()
                best = min(best, time.perf_counter() - start)
            out.append(best)
    finally:
        gc.enable()
    return out


def speed(first: list[float], second: list[float]) -> float:
    """Reference time over observed time, between two probes: the geometric
    mean over the probe loops, which tracks the package's mix of Fraction
    arithmetic and tuple/dict traffic better than either loop alone."""
    factor = 1.0
    for (_, ref), a, b in zip(PROBES, first, second):
        factor *= 2 * ref / (a + b)
    return factor ** (1 / len(PROBES))


def main() -> int:
    # a terminated run still stops the processes it started (see run_pass)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    import weylfans  # noqa: F401

    import workloads

    tracer = None
    if args.trace and args.workload not in ("cli", "cli-sweep"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    specs = workloads.make_inputs(args.workload, args.seed)
    print("READY", flush=True)

    ctx = {"dir": args.dir, "trace": bool(args.trace)}
    outputs, latencies, errors = [], [], {}
    probes = [probe(), probe()]
    before = []  # index of the last probe taken before each operation
    clock = time.perf_counter
    next_probe = clock() + PROBE_EVERY_S
    for op_id, spec in enumerate(specs):
        ctx["op"] = op_id
        out, call = None, None
        try:
            call = workloads.run(args.workload, spec, ctx)
        except Exception as exc:  # a failed operation is counted; the stream goes on
            errors[op_id] = f"{type(exc).__name__}: {exc}"
        start = clock()
        if call is not None:
            if tracer is not None:
                tracer.op = op_id
            try:
                out = call()
            except Exception as exc:
                errors[op_id] = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.op = None
        end = clock()
        latencies.append(end - start)
        outputs.append(out)
        before.append(len(probes) - 1)
        if end >= next_probe:
            probes.append(probe())
            next_probe = clock() + PROBE_EVERY_S
    probes.append(probe())
    factors = [speed(probes[k], probes[k + 1]) for k in before]

    digest = hashlib.sha256()
    for op_id, (spec, out) in enumerate(zip(specs, outputs)):
        if op_id not in errors:
            try:
                workloads.check(args.workload, spec, out, ctx)
                digest.update(workloads.encode(args.workload, spec, out))
            except Exception as exc:
                errors[op_id] = f"{type(exc).__name__}: {exc}"
        if op_id in errors:
            digest.update(b"failed")
        digest.update(b"\n")

    result = {
        "ops": len(specs),
        "setup_speed": speed(probes[0], probes[1]),
        "latencies_s": latencies,
        "speed": factors,
        "errors": {str(k): v for k, v in sorted(errors.items())},
        "output_sha256": digest.hexdigest(),
    }
    if tracer is not None:
        tracer.dump(os.path.join(args.dir, "spans-inproc.json"))
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
