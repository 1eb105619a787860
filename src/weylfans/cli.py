"""Command-line front end.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage or input
error (an exceeded bound included), 3 internal error: an invariant
violation or any other exception, reported in one line without a
traceback.  All behavior is flag-driven; there is no environment-variable
configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import casebook, jsonio, lattice, spherical, toric
from .errors import BoundExceeded, InvalidInput, InvariantViolation
from .isotropic import (
    check_equal_intersections,
    lg_orbit_dim,
    og_orbit_data,
    orthogonal_doubled,
    symplectic_doubled,
    tau_fixed_locus_check,
)
from .polyhedra import is_complete, is_smooth, star_subdivision
from .rootsys import build_root_system, weyl_order

# the orbits table has a row per invariant 0..n, so n is bounded before any row is built
MAX_TABLE_HALF_RANK = 10_000


def _emit(payload, as_json: bool, text: str = "") -> None:
    """Print the payload as canonical JSON, or else the text and a newline."""
    sys.stdout.write(jsonio.dumps(payload) if as_json else text + "\n")


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"cannot read {path}: not UTF-8 at byte {exc.start}") from None
    except ValueError:
        # json reads a number through int(), which refuses one past the digit limit
        raise BoundExceeded(
            f"a number in {path} is above the {jsonio.digit_limit()}-digit limit for reading integers"
        ) from None


def _cmd_root_system(args) -> int:
    rs = build_root_system(args.type)
    payload = jsonio.root_system_to_json(rs)
    payload["positive_root_count"] = len(rs.positive_root_vectors())
    payload["rho"] = jsonio.encode_vector(rs.rho)
    payload["weyl_order"] = weyl_order(rs)
    payload["weight_root_index"] = lattice.weight_root_index(rs)
    lines = [
        f"type {rs.label}: rank {rs.rank}, ambient dimension {rs.ambient_dim}",
        f"roots: {len(rs.roots)} ({payload['positive_root_count']} positive)",
        f"highest root: {payload['highest_root']}",
        f"Weyl order: {payload['weyl_order']}",
        f"weight/root lattice index: {payload['weight_root_index']}",
        f"Cartan matrix: {payload['cartan_matrix']}",
    ]
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cmd_weights(args) -> int:
    rs = build_root_system(args.type)
    target = args.to
    rows = {}
    for i in range(1, rs.rank + 1):
        w = lattice.to_basis(lattice.fundamental_weight(rs, i), target)
        a = lattice.to_basis(lattice.simple_root(rs, i), target)
        rows[f"omega{i}"] = jsonio.encode_vector(w.coords)
        rows[f"alpha{i}"] = jsonio.encode_vector(a.coords)
    payload = {"type": rs.label, "basis": target, "vectors": rows}
    lines = [f"type {rs.label} in basis {target}", *(f"{name}: {coords}" for name, coords in rows.items())]
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _fan_report(f) -> dict:
    complete = is_complete(f)
    smooth = all(is_smooth(c) for c in f.maximal_cones)
    rank2 = f.maximal_cones[0].lattice_rank() == 2
    picard = len(f.rays()) - 2 if complete and smooth and rank2 else None
    return {"complete": complete, "smooth": smooth, "picard": picard}


def _cmd_fan(args) -> int:
    if args.action == "build":
        if not args.type:
            raise InvalidInput("fan build needs --type")
        f = toric.weyl_chamber_fan(build_root_system(args.type))
        _emit(jsonio.fan_to_json(f), True)
        return 0
    if not args.input:
        raise InvalidInput(f"fan {args.action} needs --input")
    f = jsonio.fan_from_json(_load_json_file(args.input))
    if args.action == "check":
        report = _fan_report(f)
        text = f"complete={report['complete']} smooth={report['smooth']} picard={report['picard']}"
        _emit(report, args.json, text)
        return 0
    # argparse's choices leave only "subdivide" here
    if not args.ray:
        raise InvalidInput("fan subdivide needs --ray")
    try:
        ray = [jsonio.str_to_fraction(x) for x in args.ray.split(",")]
    except BoundExceeded:
        raise
    except InvalidInput as exc:
        raise InvalidInput(f"malformed ray {args.ray!r}") from exc
    _emit(jsonio.fan_to_json(star_subdivision(f, ray)), True)
    return 0


def _cmd_spherical(args) -> int:
    if args.action == "wonderful":
        if not args.type:
            raise InvalidInput("spherical wonderful needs --type")
        f = spherical.wonderful_colored_fan(build_root_system(args.type))
        _emit(jsonio.colored_fan_to_json(f), True)
        return 0
    if args.rank is None:
        raise InvalidInput(f"spherical {args.action} needs --rank")
    if args.action == "z-fan":
        _emit(jsonio.colored_fan_to_json(spherical.z_colored_fan(args.rank)), True)
        return 0
    if args.action == "chain":
        fans = spherical.blowup_chain_fans(args.rank)
        steps = [
            {
                "from": i,
                "to": i + 1,
                "extends": spherical.extends_to_morphism(fans[i], fans[i + 1]),
                "reverse_extends": spherical.extends_to_morphism(fans[i + 1], fans[i]),
            }
            for i in range(len(fans) - 1)
        ]
        payload = {"fans": [jsonio.colored_fan_to_json(f) for f in fans], "steps": steps}
        _emit(payload, True)
        return 0
    # argparse's choices leave only "extend" here
    rs = build_root_system(f"C{args.rank}")
    x_fan = spherical.wonderful_colored_fan(rs)
    z_fan = spherical.z_colored_fan(args.rank)
    payload = {
        "wonderful_to_quotient": spherical.extends_to_morphism(x_fan, z_fan),
        "quotient_to_wonderful": spherical.extends_to_morphism(z_fan, x_fan),
    }
    text = (
        f"wonderful->quotient: {payload['wonderful_to_quotient']}; "
        f"quotient->wonderful: {payload['quotient_to_wonderful']}"
    )
    _emit(payload, args.json, text)
    return 0


def _cmd_orbits(args) -> int:
    n = args.n
    if n > MAX_TABLE_HALF_RANK:
        raise BoundExceeded(f"half rank {n} is above the table bound {MAX_TABLE_HALF_RANK}")
    if args.kind == "lg":
        space = symplectic_doubled(n)
        table = [{"k": k, "dim": lg_orbit_dim(n, k), "codim": k * k} for k in range(n + 1)]
    else:
        space = orthogonal_doubled(n)
        data = [og_orbit_data(n, k) for k in range(n + 1)]
        table = [
            {"k": k, "dim": d.orbit_dim, "codim": d.codim, "base": d.base_dim, "fiber": d.fiber_dim}
            for k, d in enumerate(data)
        ]
    reports = []
    if args.samples:
        reports.append(check_equal_intersections(space, args.samples, args.seed).__dict__)
        if args.kind == "lg":
            reports.append(tau_fixed_locus_check(space, args.samples, args.seed).__dict__)
    payload = {"kind": args.kind, "n": n, "table": table, "sampled_checks": reports}
    lines = [f"k={row['k']}: dim {row['dim']} (codim {row['codim']})" for row in table]
    for r in reports:
        lines.append(f"{r['lemma']}: {r['violations']} violations in {r['samples']} samples")
    _emit(payload, args.json, "\n".join(lines))
    return 0 if sum(r["violations"] for r in reports) == 0 else 1


def _cmd_verify(args) -> int:
    if args.case is not None:
        reports = [casebook.run_case(args.case, seed=args.seed)]
    else:
        reports = casebook.run_all(seed=args.seed)
    _emit([r.to_json() for r in reports], args.json, "\n".join(r.render_text() for r in reports))
    return 0 if all(r.passed() for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylfans",
        description="exact root system, fan and spherical-embedding toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("root-system", help="roots, Cartan data and Weyl order of a type")
    p.add_argument("--type", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_root_system)

    p = sub.add_parser("weights", help="basis-change tables for weights and roots")
    p.add_argument("--type", required=True)
    p.add_argument("--to", required=True, choices=list(lattice.BASIS_TAGS))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("fan", help="build, subdivide or check fans")
    p.add_argument("action", choices=["build", "subdivide", "check"])
    p.add_argument("--type")
    p.add_argument("--input")
    p.add_argument("--ray")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fan)

    p = sub.add_parser("spherical", help="colored fans and extension decisions")
    p.add_argument("action", choices=["wonderful", "z-fan", "chain", "extend"])
    p.add_argument("--type")
    p.add_argument("--rank", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_spherical)

    p = sub.add_parser("orbits", help="stratum dimension tables and sampled checks")
    p.add_argument("kind", choices=["lg", "og"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("verify", help="run the verification casebook")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--case")
    group.add_argument("--all", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a library bug: one line, no traceback
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
