"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import oracle
import spec
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    first = json.dumps(workloads.make_inputs(workload, 7)).encode()
    again = json.dumps(workloads.make_inputs(workload, 7)).encode()
    other = json.dumps(workloads.make_inputs(workload, 8)).encode()
    assert first == again
    assert first != other
    assert len(workloads.make_inputs(workload, 7)) == spec.WORKLOADS[workload]["ops"]


def test_inputs_do_not_touch_weylfans():
    code = "import sys, workloads\n" + "".join(
        f"workloads.make_inputs({w!r}, 3)\n" for w in workloads.INPUTS
    ) + "print(any(m.startswith('weylfans') for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=os.path.join(ROOT, "perfbench"),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_closed_forms():
    assert [oracle.root_count(t) for t in ("A1", "B3", "C4", "D4", "E8", "G2")] == [2, 18, 32, 24, 240, 12]
    assert [oracle.weyl_order(t) for t in ("A3", "B3", "D5", "F4", "E6")] == [24, 48, 1920, 1152, 51840]


def rejects(workload, spec_, out, ctx=None):
    with pytest.raises(oracle.CheckFailed):
        workloads.check(workload, spec_, out, ctx or {})


def test_checker_rejects_wrong_lattice_answers():
    query = {"op": "query", "type": "A4", "coords": [1, 2, 0, -1]}
    back = tuple(Fraction(c) for c in query["coords"])
    good = {"roots": 20, "back": {"simple_root": back}, "pair": Fraction(2), "primitive": True}
    workloads.check("lattice", query, good, {})
    rejects("lattice", query, dict(good, roots=21))
    rejects("lattice", query, dict(good, back={"simple_root": back[:3] + (Fraction(0),)}))
    rejects("lattice", query, dict(good, pair=Fraction(1, 2)))
    rejects("lattice", query, dict(good, primitive=False))

    group = {"op": "group", "type": "B2"}
    elements = [SimpleNamespace(matrix=((i,),)) for i in range(8)]
    good = {"order": 8, "w0": SimpleNamespace(word=(1, 2, 1, 2)), "anticanonical": (Fraction(3), Fraction(4)),
            "elements": elements}
    workloads.check("lattice", group, good, {})
    rejects("lattice", group, dict(good, order=6))
    rejects("lattice", group, dict(good, w0=SimpleNamespace(word=(1, 2))))
    rejects("lattice", group, dict(good, anticanonical=(Fraction(3), Fraction(0))))
    rejects("lattice", group, dict(good, elements=elements[:7] + elements[:1]))


def test_checker_rejects_wrong_fan_answers():
    rejects("fans", {"op": "chamber", "type": "B3"}, SimpleNamespace(maximal_cones=[None] * 47))
    rejects("fans", {"op": "complete", "type": "A2"}, False)
    rejects("fans", {"op": "picard", "type": "G2"}, 11)
    rejects("fans", {"op": "extends", "rank": 3, "source": 2, "target": 1}, True)
    rejects("fans", {"op": "extends", "rank": 3, "source": 1, "target": 2}, False)
    rays = SimpleNamespace(rays=lambda: [None] * 8)
    rejects("fans", {"op": "subdivide", "type": "B2"}, {"fan": rays, "rays_before": 8})
    rejects("fans", {"op": "fan_json", "type": "B2"}, {"text": "{}\n", "again": "{ }\n"})
    rejects("fans", {"op": "z_fan", "rank": 4}, SimpleNamespace(cones=[None] * 4))
    rejects("fans", {"op": "wonderful", "type": "C4"}, SimpleNamespace(cones=[None] * 15))
    rejects("fans", {"op": "picard_presentation", "type": "A2"}, SimpleNamespace(free_rank=2, torsion=(2,)))


def test_checker_rejects_wrong_isotropic_answers():
    draw = {"op": "draw", "kind": "symplectic", "n": 3, "seed": 1}
    workloads.check("isotropic", draw, {"invariant": 3, "tau_fixed": True}, {})
    rejects("isotropic", draw, {"invariant": 3, "tau_fixed": False})
    rejects("isotropic", draw, {"invariant": 1, "tau_fixed": True})
    rejects("isotropic", dict(draw, kind="orthogonal"), {"invariant": 4, "tau_fixed": None})


def test_checker_rejects_wrong_cli_answers():
    verify = {"op": "cli", "args": ["verify", "--case", "g2-surface", "--seed", "1", "--json"]}
    ok = json.dumps([{"verdict": "pass"}]).encode()
    workloads.check("cli", verify, {"returncode": 0, "stdout": ok, "stderr": b""}, {})
    rejects("cli", verify, {"returncode": 1, "stdout": ok, "stderr": b""})
    rejects("cli", verify, {"returncode": 0, "stdout": b"not json", "stderr": b""})
    rejects("cli", verify, {"returncode": 0, "stdout": json.dumps([{"verdict": "fail"}]).encode(), "stderr": b""})
    root = {"op": "cli", "args": ["root-system", "--type", "F4", "--json"]}
    rejects("cli", root, {"returncode": 0, "stdout": b'{"root_count": 48, "weyl_order": 576}', "stderr": b""})
    fan_doc = {"ambient_dim": 2, "lattice": "standard", "rays": [["1/1", "0/1"], ["0/1", "1/1"]],
               "maximal_cones": [[0, 1]]}
    not_canonical = json.dumps(fan_doc).encode()  # the canonical form is indented
    rejects("cli", {"op": "fan_build", "type": "A1"}, {"returncode": 0, "stdout": not_canonical, "stderr": b""})
    orbits = {"op": "cli", "args": ["orbits", "lg", "--n", "2", "--samples", "10", "--seed", "3", "--json"]}
    bad = json.dumps({"sampled_checks": [{"violations": 1}]}).encode()
    rejects("cli", orbits, {"returncode": 0, "stdout": bad, "stderr": b""})


def test_self_times_on_a_nested_tree_with_recursion():
    spans = [
        ("polyhedra.covered_by", 0.0, 10.0, -1, 0),
        ("linalg.feasible", 1.0, 6.0, 0, 0),
        ("linalg.feasible", 2.0, 5.0, 1, 0),  # feasible calling itself
        ("linalg.rank", 3.0, 4.0, 2, 0),
        ("linalg.mat_vec", 7.0, 8.0, 0, 0),
        ("linalg.mat_vec", 20.0, 22.0, -1, 1),  # a second operation
    ]
    out = tracer.self_times(spans)
    assert out == {
        "polyhedra.covered_by": (1, 4.0),
        "linalg.feasible": (2, 4.0),
        "linalg.rank": (1, 1.0),
        "linalg.mat_vec": (2, 3.0),
    }
    assert sum(s for _, s in out.values()) == 10.0 + 2.0
    scaled = tracer.self_times(spans, speed=[0.5, 2.0])
    assert scaled["linalg.feasible"] == (2, 2.0)
    assert scaled["linalg.mat_vec"] == (2, 0.5 + 4.0)


def test_wrapper_records_parents_through_recursion():
    t = tracer.Tracer()

    def countdown(n):
        return n if n == 0 else wrapped(n - 1)

    wrapped = t.wrap("polyhedra.covered_by", lambda n: countdown(n))
    assert wrapped(3) == 0  # no operation active: nothing recorded
    assert t.spans == []
    t.op = 4
    wrapped(3)
    assert [(s[0], s[3], s[4]) for s in t.spans] == [
        ("polyhedra.covered_by", -1, 4), ("polyhedra.covered_by", 0, 4),
        ("polyhedra.covered_by", 1, 4), ("polyhedra.covered_by", 2, 4),
    ]
    calls, self_s = tracer.self_times(t.spans)["polyhedra.covered_by"]
    assert calls == 4
    assert abs(self_s - (t.spans[0][2] - t.spans[0][1])) < 1e-9


def test_benchmark_json_matches_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for w in doc["workloads"]:
        why = spec.WORKLOADS[w["name"]]["why"]
        assert w["why"] == why and len(why) <= 200
        ops = spec.WORKLOADS[w["name"]]["ops"]
        assert why.endswith(f"{ops} ops/pass, tail p{spec.tail_percentile(ops)}")
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == spec.per_layer()


def test_case_ids_are_the_casebook():
    from weylfans import casebook

    assert tuple(case_id for case_id, _ in casebook.list_cases()) == workloads.CASE_IDS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_errors(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    context = json.loads(proc.stdout.splitlines()[-2])["context"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and context["error_rate"] == 0
    assert set(result["metrics"]) == {name for name, _, _, _ in spec.END_TO_END}
