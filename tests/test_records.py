"""The value classes built on `weylfans._record.Record` behave as the
`@dataclass(frozen=True)` declarations they replace (`old_records`): on
library-built instances of each of them, equality, hashing, repr, the
refusal of assignment and deletion, and the `__post_init__` checks agree
with an oracle copy whose nested values are oracle copies too.  Only
`_record` writes an underscore field.  The command-line entry point
imports neither `dataclasses` nor `inspect`."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import old_records
import pytest

from weylfans import casebook, isotropic, lattice, polyhedra, rootsys, spherical, toric
from weylfans._record import Record, cached
from weylfans.errors import InvalidInput
from weylfans.lattice import LatticeVector
from weylfans.polyhedra import RationalCone, cone
from weylfans.rootsys import RootSystem, build_root_system

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = (rootsys, lattice, polyhedra, toric, spherical, isotropic, casebook)


def _record_classes():
    return sorted(
        {c for m in MODULES for c in vars(m).values() if isinstance(c, type) and issubclass(c, Record) and c is not Record},
        key=lambda c: c.__name__,
    )


def _old(value, memo):
    """The oracle copy of a value: each record becomes its old dataclass,
    through its init fields; a root system's basis-change cache starts
    empty there, as at construction."""
    if isinstance(value, Record):
        if id(value) not in memo:
            cls = getattr(old_records, type(value).__name__)
            init = [f.name for f in dataclasses.fields(cls) if f.init and f.name != "_basis_changes"]
            memo[id(value)] = cls(**{name: _old(getattr(value, name), memo) for name in init})
        return memo[id(value)]
    if isinstance(value, (tuple, list, frozenset)):
        items = [_old(v, memo) for v in value]
        # a set rebuilt from the same strings may iterate, and print, in another order
        return value if all(a is b for a, b in zip(items, value)) else type(value)(items)
    if isinstance(value, dict):
        return {k: _old(v, memo) for k, v in value.items()}
    return value


def _outcome(f):
    """A value, or the kind and message of the exception; AttributeError
    stands for its subclass FrozenInstanceError."""
    try:
        return "value", f()
    except AttributeError as exc:
        return AttributeError, str(exc)
    except (TypeError, InvalidInput) as exc:
        return type(exc), str(exc)


def _rebuilt(rs):
    """A root system through its constructor, from another one's fields."""
    return RootSystem(**{k: v for k, v in vars(rs).items() if k not in ("_basis_changes", "_coords_by_root")})


def _instances():
    """Two or more library-built instances of each record class, with equal
    and unequal pairs among them."""
    b3, c3, a2, g2 = (build_root_system(label) for label in ("B3", "C3", "A2", "G2"))
    chain = spherical.blowup_chain_fans(3)
    ledgers = [toric.projective_plane_ledger(), toric.projective_plane_ledger(), toric.quadric_surface_ledger()]
    ledgers.append(toric.blowup_boundary_point(ledgers[0], "E1", ["H"]))
    divisor_ledgers = [spherical.wonderful_divisor_ledger(rs) for rs in (c3, b3, c3)]
    spaces = [isotropic.symplectic_doubled(2), isotropic.symplectic_doubled(2), isotropic.orthogonal_doubled(2)]
    reports = [casebook.run_case(case) for case in ("g2-surface", "g2-surface", "og-orbits")]
    quadrant = cone([[1, 0], [0, 1]])
    # equal cones, one with its dual basis handed over by `cone` and one without
    bare = RationalCone(2, quadrant.gens)
    assert "_dual" not in vars(bare) and "_dual" in vars(quadrant)
    return {
        "RootSystem": [b3, c3, _rebuilt(b3)],
        "LatticeVector": [
            lattice.vector(b3, [1, 2, 3], "simple_root"),
            lattice.vector(b3, [1, 2, 3], "simple_root"),
            lattice.to_basis(lattice.vector(b3, [1, 2, 3], "simple_root"), "fund_weight"),
            lattice.fundamental_weight(c3, 2),
        ],
        "RationalCone": [quadrant, bare, cone([[1, 0], [1, 1]]), cone([[1, 0, 0]], lattice=[[2, 0, 0], [0, 1, 0], [0, 0, 1]])],
        "Fan": [toric.weyl_chamber_fan(a2), toric.weyl_chamber_fan(a2), toric.weyl_chamber_fan(g2)],
        "ToricSurface": [toric.toric_surface(toric.weyl_chamber_fan(rs)) for rs in (a2, a2, g2)],
        "SurfaceBlowupLedger": ledgers,
        "CoefficientSpectrum": [toric.coefficient_spectrum(x) for x in ledgers],
        "ColoredCone": [cc for f in chain for cc in f.cones][:12],
        "ColoredFan": chain + spherical.blowup_chain_fans(3)[:1],
        "OrbitPoset": [spherical.orbit_poset(f) for f in chain[:2] + chain[:1]],
        "DivisorLedger": divisor_ledgers,
        "PicardPresentation": [spherical.picard_presentation(x) for x in divisor_ledgers],
        "FormalDivisor": [spherical.wonderful_anticanonical_divisor(rs) for rs in (c3, a2, c3)],
        "DoubledSpace": spaces,
        # sampled, base and involution images, each with its basis built on first read
        "IsotropicSubspace": [
            isotropic.random_maximal_isotropic(spaces[0], 1),
            isotropic.random_maximal_isotropic(spaces[1], 1),
            isotropic.diagonal_subspace(spaces[2]),
            isotropic.random_maximal_isotropic(spaces[2], 4),
            isotropic.tau_image(isotropic.random_maximal_isotropic(spaces[0], 1)),
            isotropic.tau_image(isotropic.random_maximal_isotropic(spaces[2], 4)),
            isotropic.tau_image(isotropic.split_subspace(spaces[0])),
            isotropic.IsotropicSubspace(spaces[0], isotropic.split_subspace(spaces[0]).basis),
        ],
        "SampleReport": [
            isotropic.check_equal_intersections(spaces[0], 3, seed=9),
            isotropic.check_equal_intersections(spaces[0], 3, seed=9),
            isotropic.tau_fixed_locus_check(spaces[0], 3, seed=9),
        ],
        "OrbitData": [isotropic.og_orbit_data(3, 1), isotropic.og_orbit_data(3, 1), isotropic.og_orbit_data(3, 2)],
        "Expected": [e for r in reports for e in r.expected.values()],
        "CaseReport": reports,
    }


def test_every_record_class_is_declared_as_its_oracle():
    classes = _record_classes()
    assert len(classes) == 19
    for cls in classes:
        old = getattr(old_records, cls.__name__)
        assert list(cls.__annotations__) == [f.name for f in dataclasses.fields(old)], cls
        assert cls._fields == tuple(f.name for f in dataclasses.fields(old) if f.compare), cls


def test_records_match_the_frozen_dataclasses():
    instances = _instances()
    assert sorted(instances) == [c.__name__ for c in _record_classes()]
    compared = 0
    for name, xs in instances.items():
        memo = {}
        olds = [_old(x, memo) for x in xs]
        for x, o in zip(xs, olds):
            assert repr(x) == repr(o), name
            assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(o)), name
            assert x.__eq__(object()) is NotImplemented and o.__eq__(object()) is NotImplemented
            for field in (*x.__annotations__, "unknown"):
                assert _outcome(lambda: setattr(x, field, 0)) == _outcome(lambda: setattr(o, field, 0))
                assert _outcome(lambda: delattr(x, field)) == _outcome(lambda: delattr(o, field))
                assert _outcome(lambda: setattr(x, field, 0))[0] is AttributeError
        for i, (x, o) in enumerate(zip(xs, olds)):
            for y, p in zip(xs[i:], olds[i:]):
                assert (x == y, x != y) == (o == p, o != p), name
                compared += 1
        # every class has an equal pair of distinct objects and an unequal pair
        assert any(x is not y and x == y for x in xs for y in xs), name
        assert any(x != y for x in xs for y in xs), name
    assert compared > 100


def test_records_of_different_classes_are_never_equal():
    space, expected = isotropic.symplectic_doubled(2), casebook.Expected(2, "symplectic")
    assert space.__eq__(expected) is NotImplemented and space != expected
    assert old_records.DoubledSpace(2, "symplectic") != old_records.Expected(2, "symplectic")


def test_root_systems_do_not_share_basis_changes():
    b3 = build_root_system("B3")
    first, second = _rebuilt(b3), _rebuilt(b3)
    # made at construction, before any read
    assert "_basis_changes" in vars(first)
    assert first == second == b3 and first._simple_coords is b3._simple_coords
    assert first._basis_changes == second._basis_changes == {}
    lattice.to_basis(lattice.vector(first, [1, 0, 0], "simple_root"), "fund_weight")
    assert first._basis_changes and second._basis_changes == {}
    assert build_root_system("C3")._basis_changes is not b3._basis_changes


def test_fans_keep_their_names_out_of_their_value():
    """A fan from `fan` and the same fan built directly are one value with
    the same names; a colored fan rebuilt from its fields names its cones
    alike (its dict fields leave it unhashable).  Both name them when they
    are built."""
    a2 = build_root_system("A2")
    chamber = toric.weyl_chamber_fan(a2)
    for f in (chamber, polyhedra.star_subdivision(chamber, (1, 1, -2)), polyhedra.fan([cone([[1, 0], [0, 1]])])):
        direct = polyhedra.Fan(f.ambient_dim, f.maximal_cones, f.lattice)
        assert "_names" in vars(direct), "named at construction, before any read"
        assert direct == f and hash(direct) == hash(f) and repr(direct) == repr(f)
        assert direct._names == f._names and direct._names is not f._names
    for f in spherical.blowup_chain_fans(3):
        rebuilt = spherical.ColoredFan(f.rank, f.cones, f.valuation_cone, f.rho_table, f.colors, f.boundary_names)
        assert "_names" in vars(rebuilt)
        assert rebuilt == f and repr(rebuilt) == repr(f)
        assert rebuilt._names == f._names


def test_sample_report_dict_holds_its_four_fields_in_order():
    report = isotropic.check_equal_intersections(isotropic.symplectic_doubled(2), 3, seed=9)
    old = _old(report, {})
    assert list(vars(report).items()) == list(vars(old).items())
    assert list(vars(report)) == ["lemma", "samples", "violations", "seed"]


@pytest.mark.parametrize(
    "new, old, args",
    [
        (LatticeVector, old_records.LatticeVector, ("B3", "bogus", (1, 2, 3))),
        (LatticeVector, old_records.LatticeVector, ("B3", "simple_root", (1, 2))),
        (LatticeVector, old_records.LatticeVector, ("B3", "ambient", (1, 2, 3))),
        (spherical.DivisorLedger, old_records.DivisorLedger, (("a", "b"), ((1, 0), (1,)))),
        (spherical.DivisorLedger, old_records.DivisorLedger, (("a", "b"), ((1, 0),))),
    ],
)
def test_construction_checks_match(new, old, args):
    if args[0] == "B3":
        args = (build_root_system("B3"), *args[1:])
    got, want = _outcome(lambda: new(*args)), _outcome(lambda: old(*args))
    assert got[0] == want[0] and (got[0] == "value" or got == want)
    if got[0] == "value":
        assert repr(got[1]) == repr(want[1])


def test_shared_constructor_refuses_bad_arguments():
    with pytest.raises(TypeError, match="missing required argument 'provenance'"):
        casebook.Expected(1)
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3"):
        casebook.Expected(1, "tabulated", 3)
    with pytest.raises(TypeError, match="unexpected keyword argument 'source'"):
        casebook.Expected(1, provenance="tabulated", source="x")
    assert toric.SurfaceBlowupLedger((("H", 3),)).history == ()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = "import sys, weylfans.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


# the underscore fields that are no cache: handed over at construction, with
# a default (the standard lattice) or without one
PLAIN_FIELDS = {("RationalCone", "_lat"), ("RootSystem", "_simple_coords")}


def _is_setattr(node):
    return isinstance(node, ast.Attribute) and node.attr == "__setattr__" and getattr(node.value, "id", None) == "object"


def _writes(tree, writer):
    """(name written, line) of each call in a module whose function
    `writer` accepts; a name that is not a string constant is None."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and writer(n.func):
            name = n.args[1] if len(n.args) > 1 else None
            yield (name.value if isinstance(name, ast.Constant) else None), n.lineno


def test_only_record_writes_underscore_fields():
    """No `object.__setattr__` outside `_record.py`, called directly or
    through a name bound to it, writes an underscore name; `keep` there
    writes only declared underscore fields; and every underscore field of a
    record class is a cache declared with `cached` or one of the plain
    fields above.  So a further cache is declared, not hand-written."""
    fields = [(c, n) for c in _record_classes() for n in c.__annotations__ if n.startswith("_")]
    plain = {(c.__name__, n) for c, n in fields if not isinstance(c.__dict__.get(n), cached)}
    assert plain == PLAIN_FIELDS and len(fields) > len(plain)
    assert RationalCone._lat is None and "_simple_coords" not in RootSystem.__dict__
    sources = sorted((SRC / "weylfans").glob("*.py"))
    assert len(sources) > 10
    kept = 0
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign) and _is_setattr(n.value) for t in n.targets}
        writes = list(_writes(tree, lambda f: _is_setattr(f) or getattr(f, "id", None) in aliases))
        if path.name == "_record.py":
            assert writes, "the protocol's writes are found"
            continue
        bad = [(name, line) for name, line in writes if name is None or name.startswith("_")]
        assert bad == [], f"{path.name} writes underscore fields: {bad}"
        keeps = list(_writes(tree, lambda f: getattr(f, "id", None) == "keep"))
        assert [w for w in keeps if w[0] not in {n for _, n in fields}] == [], path.name
        kept += len(keeps)
    assert kept > 0
