"""The four benchmark workloads: seeded inputs, operations, checks, outputs.

Each workload turns a seed into a list of operation specs (plain JSON data),
and for every spec kind provides

* ``run``: returns a zero-argument callable; calling it is the timed
  operation, and nothing else is inside the timing;
* ``check``: raises ``CheckFailed`` unless the answer agrees with an oracle
  that does not depend on weylfans (closed forms, exact round trips,
  documented invariants);
* ``encode``: canonical bytes of the answer for the output digest, made with
  the ``jsonio`` encoders (stdout bytes for the ``cli`` workload).

``ctx`` is a per-pass dict: operations store results that later operations
of the same pass use (a fan that is then subdivided, a fan document that is
then checked).  Input generation never calls weylfans, so a pass pays every
cold cache inside its timed stream.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import oracle
from oracle import expect

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_SHIM = os.path.join(HERE, "cli_shim.py")
CLI_TIMEOUT_S = 120

# --- lattice ----------------------------------------------------------------

LATTICE_TYPES = (
    "A1", "A2", "A3", "A4", "A6", "A8", "B2", "B3", "B4", "B6", "C2",
    "C3", "C4", "C6", "D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2",
)
QUERIES_PER_TYPE = 12
# |W| <= 384; F4 (1152) is left out because its enumeration alone would take
# a third of the pass and leave fewer passes per run
GROUP_TYPES = ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "B4")
GROUP_BOUND = 384


def lattice_inputs(rng: random.Random) -> list[dict]:
    queries = []
    for label in LATTICE_TYPES:
        for _ in range(QUERIES_PER_TYPE):
            coords = [0]
            while not any(coords):
                coords = [rng.randint(-5, 5) for _ in range(oracle.rank(label))]
            queries.append({"op": "query", "type": label, "coords": coords})
    rng.shuffle(queries)
    step = len(queries) // len(GROUP_TYPES)
    ops = []
    for i, query in enumerate(queries):
        ops.append(query)
        if i % step == step - 1 and i // step < len(GROUP_TYPES):
            ops.append({"op": "group", "type": GROUP_TYPES[i // step]})
    return ops


def _run_query(spec, ctx):
    from weylfans import lattice, rootsys

    def op():
        rs = rootsys.build_root_system(spec["type"])
        v = lattice.LatticeVector(rs, "fund_weight", spec["coords"])
        images = {tag: lattice.to_basis(v, tag) for tag in lattice.BASIS_TAGS}
        back = {tag: lattice.to_basis(w, "fund_weight").coords for tag, w in images.items()}
        return {
            "roots": len(rs.roots),
            "images": {tag: w.coords for tag, w in images.items()},
            "back": back,
            "pair": lattice.pair(v, lattice.highest_coroot(rs)),
            "primitive": lattice.is_primitive_in_weight_lattice(v),
        }

    return op


def _check_query(spec, out, ctx):
    label, coords = spec["type"], spec["coords"]
    expect(out["roots"] == oracle.root_count(label), f"{label} has {out['roots']} roots")
    for tag, back in out["back"].items():
        expect(list(back) == coords, f"{label} round trip through {tag} gave {back}")
    expect(Fraction(out["pair"]).denominator == 1, f"{label} pairing {out['pair']} is not integral")
    g = 0
    for c in coords:
        g = gcd(g, c)
    expect(out["primitive"] == (g == 1), f"{label} primitivity of {coords}")


def _encode_query(spec, out):
    from weylfans import jsonio

    return {
        "images": {tag: jsonio.encode_vector(c) for tag, c in out["images"].items()},
        "pair": jsonio.fraction_to_str(out["pair"]),
        "primitive": out["primitive"],
    }


def _run_group(spec, ctx):
    from weylfans import lattice, rootsys

    def op():
        rs = rootsys.build_root_system(spec["type"])
        return {
            "order": rootsys.weyl_order(rs),
            "w0": rootsys.longest_element(rs),
            "anticanonical": lattice.anticanonical_weight(rs).coords,
            "elements": rootsys.weyl_enumerate(rs, bound=GROUP_BOUND),
        }

    return op


def _check_group(spec, out, ctx):
    label = spec["type"]
    order = oracle.weyl_order(label)
    expect(out["order"] == order, f"|W({label})| = {out['order']}, expected {order}")
    expect(len(out["w0"].word) == oracle.root_count(label) // 2, f"w0 of {label} has the wrong length")
    expect(
        all(c.denominator == 1 and c > 0 for c in out["anticanonical"]),
        f"anticanonical weight of {label} is not regular dominant integral",
    )
    elements = out["elements"]
    expect(len(elements) == order, f"enumerated {len(elements)} elements of W({label})")
    expect(len({w.matrix for w in elements}) == order, f"repeated elements in W({label})")


def _encode_group(spec, out):
    from weylfans import jsonio

    return {
        "order": out["order"],
        "w0": jsonio.weyl_element_to_json(out["w0"]),
        "anticanonical": jsonio.encode_vector(out["anticanonical"]),
        "elements": [jsonio.weyl_element_to_json(w) for w in out["elements"]],
    }


# --- fans -------------------------------------------------------------------

# C3 is left out: its chamber fan has B3's group and combinatorics, and
# without it a run fits a fourth pass
CHAMBER_TYPES = ("A2", "B2", "G2", "A3", "B3")
RAYS_PER_SURFACE = 2
CHAIN_RANKS = (2, 3, 4, 5, 6)
WONDERFUL_TYPES = ("A2", "G2", "B3", "C4", "F4", "D5", "A6", "E6")


def fans_inputs(rng: random.Random) -> list[dict]:
    ops = []
    for label in CHAMBER_TYPES:
        ops += [{"op": kind, "type": label} for kind in ("chamber", "complete", "smooth")]
        if oracle.rank(label) == 2:
            ops.append({"op": "picard", "type": label})
    for label in CHAMBER_TYPES:
        if oracle.rank(label) != 2:
            continue
        for key in range(RAYS_PER_SURFACE):
            ray = _seeded_ray(rng, label)
            ops.append(dict(op="subdivide", type=label, key=key, **ray))
            ops.append({"op": "subdivided_complete", "type": label, "key": key})
            ops.append({"op": "fan_json", "type": label, "key": key})
    for n in CHAIN_RANKS:
        ops.append({"op": "chain", "rank": n})
        ops += [{"op": "extends", "rank": n, "source": i, "target": i + 1} for i in range(n - 1)]
        ops += [{"op": "extends", "rank": n, "source": i + 1, "target": i} for i in range(n - 1)]
        ops += [{"op": kind, "rank": n} for kind in ("z_fan", "complete_embedding", "covered")]
    for label in WONDERFUL_TYPES:
        ops += [{"op": kind, "type": label} for kind in ("wonderful", "picard_presentation")]
    return ops


def _seeded_ray(rng: random.Random, label: str) -> dict:
    """A maximal cone and positive weights on its generators: their sum is
    interior to that cone, so subdividing there adds exactly one ray."""
    return {
        "cone": rng.randrange(oracle.weyl_order(label)),
        "weights": [rng.randint(1, 5) for _ in range(oracle.rank(label))],
    }


def _interior_ray(gens, spec) -> list[Fraction]:
    ray = [Fraction(0)] * len(gens[0])
    for weight, g in zip(spec["weights"], gens):
        ray = [x + weight * Fraction(y) for x, y in zip(ray, g)]
    return ray


def _run_fans(spec, ctx):
    from weylfans import jsonio, polyhedra, rootsys, spherical, toric

    kind = spec["op"]
    label, n = spec.get("type"), spec.get("rank")
    if kind == "chamber":
        def op():
            f = toric.weyl_chamber_fan(rootsys.build_root_system(label))
            ctx["fan", label] = f
            return f
        return op
    if kind == "complete":
        f = ctx["fan", label]
        return lambda: polyhedra.is_complete(f)
    if kind == "smooth":
        f = ctx["fan", label]
        return lambda: all(polyhedra.is_smooth(c) for c in f.maximal_cones)
    if kind == "picard":
        f = ctx["fan", label]
        return lambda: toric.picard_number(toric.toric_surface(f))
    if kind == "subdivide":
        f = ctx["fan", label]
        ray = _interior_ray(f.maximal_cones[spec["cone"]].gens, spec)

        def op():
            g = polyhedra.star_subdivision(f, ray)
            ctx["sub", label, spec["key"]] = g
            return {"fan": g, "rays_before": len(f.rays())}
        return op
    if kind == "subdivided_complete":
        g = ctx["sub", label, spec["key"]]
        return lambda: polyhedra.is_complete(g)
    if kind == "fan_json":
        g = ctx["sub", label, spec["key"]]

        def op():
            text = jsonio.dumps(jsonio.fan_to_json(g))
            again = jsonio.dumps(jsonio.fan_to_json(jsonio.fan_from_json(json.loads(text))))
            return {"text": text, "again": again}
        return op
    if kind == "chain":
        def op():
            fans = spherical.blowup_chain_fans(n)
            ctx["chain", n] = fans
            return fans
        return op
    if kind == "extends":
        fans = ctx["chain", n]
        source, target = fans[spec["source"]], fans[spec["target"]]
        return lambda: spherical.extends_to_morphism(source, target)
    if kind == "z_fan":
        def op():
            z = spherical.z_colored_fan(n)
            ctx["z", n] = z
            return z
        return op
    if kind == "complete_embedding":
        z = ctx["z", n]
        return lambda: spherical.is_complete_embedding(z)
    if kind == "covered":
        z = ctx["z", n]
        return lambda: polyhedra.covered_by(z.valuation_cone, [cc.cone for cc in z.cones], shortcut=False)
    if kind == "wonderful":
        return lambda: spherical.wonderful_colored_fan(rootsys.build_root_system(label))
    if kind == "picard_presentation":
        return lambda: spherical.picard_presentation(
            spherical.wonderful_divisor_ledger(rootsys.build_root_system(label))
        )
    raise ValueError(f"unknown fans operation {kind!r}")


def _check_fans(spec, out, ctx):
    kind = spec["op"]
    label, n = spec.get("type"), spec.get("rank")
    what = f"{kind} {label or n}"
    if kind == "chamber":
        expect(len(out.maximal_cones) == oracle.weyl_order(label), f"{what}: wrong number of chambers")
    elif kind in ("complete", "smooth", "subdivided_complete", "complete_embedding", "covered"):
        expect(out is True, f"{what} returned {out!r}")
    elif kind == "picard":
        expect(out == oracle.weyl_order(label) - 2, f"{what}: Picard number {out}")
    elif kind == "subdivide":
        expect(len(out["fan"].rays()) == out["rays_before"] + 1, f"{what}: not exactly one new ray")
    elif kind == "fan_json":
        expect(out["text"] == out["again"], f"{what}: fan document does not re-emit byte-identical")
    elif kind == "chain":
        expect(len(out) == n, f"{what}: {len(out)} fans in the chain")
    elif kind == "extends":
        forward = spec["target"] == spec["source"] + 1
        expect(out is forward, f"{what} {spec['source']}->{spec['target']} returned {out!r}")
    elif kind == "z_fan":
        expect(len(out.cones) == n + 1, f"{what}: {len(out.cones)} colored cones")
    elif kind == "wonderful":
        expect(len(out.cones) == 2 ** oracle.rank(label), f"{what}: {len(out.cones)} colored cones")
    elif kind == "picard_presentation":
        expect(out.free_rank == oracle.rank(label) and out.torsion == (), f"{what}: {out.free_rank}, {out.torsion}")


def _encode_fans(spec, out):
    from weylfans import jsonio

    kind = spec["op"]
    if kind == "chamber":
        return jsonio.fan_to_json(out)
    if kind == "subdivide":
        return jsonio.fan_to_json(out["fan"])
    if kind == "fan_json":
        return out["text"]
    if kind == "chain":
        return [jsonio.colored_fan_to_json(f) for f in out]
    if kind in ("z_fan", "wonderful"):
        return jsonio.colored_fan_to_json(out)
    if kind == "picard_presentation":
        return {"free_rank": out.free_rank, "torsion": list(out.torsion), "classes": dict(out.classes)}
    return out


# --- isotropic --------------------------------------------------------------

# (kind, half rank, draws per pass); the symplectic half-rank-4 draws are the
# largest group, so the median operation is a symplectic (int_rank) draw
SPACES = (
    ("symplectic", 2, 40),
    ("symplectic", 3, 40),
    ("symplectic", 4, 70),
    ("orthogonal", 2, 40),
    ("orthogonal", 3, 40),
)


def isotropic_inputs(rng: random.Random) -> list[dict]:
    ops = [
        {"op": "draw", "kind": kind, "n": n, "seed": rng.randrange(2**31)}
        for kind, n, count in SPACES
        for _ in range(count)
    ]
    rng.shuffle(ops)
    return ops


def _run_draw(spec, ctx):
    from weylfans import isotropic

    def op():
        make = isotropic.symplectic_doubled if spec["kind"] == "symplectic" else isotropic.orthogonal_doubled
        v = isotropic.random_maximal_isotropic(make(spec["n"]), spec["seed"])
        k = isotropic.intersection_invariant(v)
        fixed = None
        if spec["kind"] == "symplectic":
            fixed = isotropic.subspaces_equal(v, isotropic.tau_image(v))
        return {"basis": v.basis, "invariant": k, "tau_fixed": fixed}

    return op


def _check_draw(spec, out, ctx):
    n, k = spec["n"], out["invariant"]
    expect(0 <= k <= n, f"invariant {k} outside 0..{n}")
    if spec["kind"] == "symplectic":
        expect(out["tau_fixed"] == (k == n), f"tau-fixed is {out['tau_fixed']} at invariant {k} of {n}")


def _encode_draw(spec, out):
    from weylfans import jsonio

    return {"basis": jsonio.encode_matrix(out["basis"]), "invariant": out["invariant"], "tau_fixed": out["tau_fixed"]}


# --- cli --------------------------------------------------------------------

CASE_IDS = (
    "g2-surface", "f4-wprime", "f4-subtorus-fan", "e8-subtorus-fan", "e8-weyl-order",
    "lattice-coincidence", "typeA-pullback", "typeB-spinor-pic", "typeC-contraction",
    "lg-orbits", "og-orbits", "surface-blowup-cases", "wonderful-anticanonical", "ihss-table",
)
# cases cheap enough for every pass; the rest run once, in the traced run's
# casebook sweep, because together they take longer than a whole run
STREAM_CASES = ("g2-surface", "f4-wprime", "f4-subtorus-fan", "surface-blowup-cases", "ihss-table")
SWEEP_CASES = tuple(c for c in CASE_IDS if c not in STREAM_CASES)
CLI_ROOT_TYPES = ("A2", "A4", "A6", "A8", "B3", "B4", "C3", "C5", "D4", "D5", "E6", "F4", "G2")
CLI_WEIGHT_TYPES = ("A3", "B4", "C5", "D4", "E6", "G2")
CLI_FAN_TYPES = ("A2", "B2", "G2")
# lattice.BASIS_TAGS, repeated because input generation does not import weylfans
BASIS_TAGS = ("ambient", "simple_root", "fund_weight", "simple_coroot", "fund_coweight")


def _verify(case_id: str, rng: random.Random) -> dict:
    return {"op": "cli", "args": ["verify", "--case", case_id, "--seed", str(rng.randrange(1000)), "--json"]}


def cli_inputs(rng: random.Random) -> list[dict]:
    ops = [_verify(case_id, rng) for case_id in STREAM_CASES]
    ops += [{"op": "cli", "args": ["root-system", "--type", t, "--json"]} for t in CLI_ROOT_TYPES]
    ops += [
        {"op": "cli", "args": ["weights", "--type", t, "--to", rng.choice(BASIS_TAGS), "--json"]}
        for t in CLI_WEIGHT_TYPES
    ]
    for label in CLI_FAN_TYPES:
        ops.append({"op": "fan_build", "type": label})
        ops.append({"op": "fan_check", "type": label})
        ops.append(dict(op="fan_subdivide", type=label, **_seeded_ray(rng, label)))
    ops += [
        {"op": "cli", "args": ["spherical", "chain", "--rank", "2"]},
        {"op": "cli", "args": ["spherical", "extend", "--rank", "3", "--json"]},
        {"op": "cli", "args": ["spherical", "z-fan", "--rank", "4"]},
        {"op": "cli", "args": ["spherical", "chain", "--rank", "5"]},
        {"op": "cli", "args": ["spherical", "wonderful", "--type", "C6"]},
    ]
    ops += [
        {"op": "cli", "args": ["orbits", kind, "--n", "2", "--samples", "10", "--seed", str(rng.randrange(1000)), "--json"]}
        for kind in ("lg", "og")
    ]
    return ops


def sweep_inputs(rng: random.Random) -> list[dict]:
    return [_verify(case_id, rng) for case_id in SWEEP_CASES]


def _fan_path(ctx, label: str) -> str:
    return os.path.join(ctx["dir"], f"fan-{label}.json")


def _cli_args(spec, ctx) -> list[str]:
    kind = spec["op"]
    if kind == "cli":
        return spec["args"]
    label = spec["type"]
    if kind == "fan_build":
        return ["fan", "build", "--type", label]
    if kind == "fan_check":
        return ["fan", "check", "--input", _fan_path(ctx, label), "--json"]
    doc = ctx["fan doc", label]
    cone = doc["maximal_cones"][spec["cone"]]
    ray = _interior_ray([[Fraction(x) for x in doc["rays"][i]] for i in cone], spec)
    return ["fan", "subdivide", "--input", _fan_path(ctx, label), "--ray=" + ",".join(str(x) for x in ray)]


def _run_cli(spec, ctx):
    argv = _cli_args(spec, ctx)
    if ctx["trace"]:
        spans = os.path.join(ctx["dir"], f"spans-{ctx['op']}.json")
        cmd = [sys.executable, CLI_SHIM, spans, str(ctx["op"]), *argv]
    else:
        cmd = [sys.executable, "-m", "weylfans.cli", *argv]

    def op():
        proc = subprocess.run(cmd, capture_output=True, timeout=CLI_TIMEOUT_S)
        if spec["op"] == "fan_build" and proc.returncode == 0:
            with open(_fan_path(ctx, spec["type"]), "wb") as handle:
                handle.write(proc.stdout)
            ctx["fan doc", spec["type"]] = json.loads(proc.stdout)
        return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    return op


def _check_cli(spec, out, ctx):
    from weylfans import jsonio

    kind = spec["op"]
    args = spec.get("args") or [kind]
    expect(out["returncode"] == 0, f"{' '.join(args)} exited {out['returncode']}: {out['stderr'][-300:]!r}")
    try:
        doc = json.loads(out["stdout"])
    except ValueError as exc:
        raise oracle.CheckFailed(f"{' '.join(args)} printed no JSON: {exc}") from None
    label = spec.get("type") or (args[2] if len(args) > 2 else None)
    if kind in ("fan_build", "fan_subdivide"):
        again = jsonio.dumps(jsonio.fan_to_json(jsonio.fan_from_json(doc)))
        expect(again.encode() == out["stdout"], f"{kind} {label}: fan document does not re-emit byte-identical")
    if kind == "fan_build":
        expect(len(doc["maximal_cones"]) == oracle.weyl_order(label), f"fan build {label}: wrong chamber count")
        ctx["fan rays", label] = len(doc["rays"])
    elif kind == "fan_check":
        expect(doc == {"complete": True, "smooth": True, "picard": oracle.weyl_order(label) - 2}, f"fan check {label}: {doc}")
    elif kind == "fan_subdivide":
        expect(len(doc["rays"]) == ctx["fan rays", label] + 1, f"fan subdivide {label}: not exactly one new ray")
    elif args[0] == "verify":
        expect(doc and all(r["verdict"] == "pass" for r in doc), f"verify {args[2]}: verdicts {[r['verdict'] for r in doc]}")
    elif args[0] == "root-system":
        expect(
            doc["root_count"] == oracle.root_count(label) and doc["weyl_order"] == oracle.weyl_order(label),
            f"root-system {label}: {doc['root_count']} roots, order {doc['weyl_order']}",
        )
    elif args[0] == "weights":
        expect(len(doc["vectors"]) == 2 * oracle.rank(label), f"weights {label}: {len(doc['vectors'])} vectors")
    elif args[:2] == ["spherical", "chain"]:
        n = int(args[3])
        expect(len(doc["fans"]) == n, f"chain {n}: {len(doc['fans'])} fans")
        expect(
            all(s["extends"] and not s["reverse_extends"] for s in doc["steps"]),
            f"chain {n}: a step does not extend forward only",
        )
    elif args[:2] == ["spherical", "extend"]:
        expect(doc == {"wonderful_to_quotient": True, "quotient_to_wonderful": False}, f"extend: {doc}")
    elif args[:2] == ["spherical", "z-fan"]:
        expect(len(doc["cones"]) == int(args[3]) + 1, f"z-fan: {len(doc['cones'])} colored cones")
    elif args[:2] == ["spherical", "wonderful"]:
        expect(len(doc["cones"]) == 2 ** oracle.rank(args[3]), f"wonderful: {len(doc['cones'])} colored cones")
    elif args[0] == "orbits":
        expect(all(r["violations"] == 0 for r in doc["sampled_checks"]), f"orbits {args[1]}: sampler violations")


def _encode_cli(spec, out):
    return out["stdout"]


# --- registry ---------------------------------------------------------------

INPUTS = {
    "lattice": lattice_inputs,
    "fans": fans_inputs,
    "isotropic": isotropic_inputs,
    "cli": cli_inputs,
    "cli-sweep": sweep_inputs,
}
WORKLOADS = ("lattice", "fans", "isotropic", "cli")


def _handlers(workload: str, kind: str):
    if workload == "lattice":
        return {"query": (_run_query, _check_query, _encode_query), "group": (_run_group, _check_group, _encode_group)}[kind]
    if workload == "fans":
        return _run_fans, _check_fans, _encode_fans
    if workload == "isotropic":
        return _run_draw, _check_draw, _encode_draw
    return _run_cli, _check_cli, _encode_cli


def make_inputs(workload: str, seed: int) -> list[dict]:
    return INPUTS[workload](random.Random(f"{workload}:{seed}"))


def run(workload: str, spec: dict, ctx: dict):
    return _handlers(workload, spec["op"])[0](spec, ctx)


def check(workload: str, spec: dict, out, ctx: dict) -> None:
    _handlers(workload, spec["op"])[1](spec, out, ctx)


def encode(workload: str, spec: dict, out) -> bytes:
    """Canonical bytes of one answer, for the output digest."""
    value = _handlers(workload, spec["op"])[2](spec, out)
    if isinstance(value, bytes):
        return value
    from weylfans import jsonio

    return jsonio.dumps({"spec": spec, "out": value}).encode()
