"""The colored-face relation with one valuation test per cone, against the
relation before it, which asked the valuation question once per pair of
cones.  Both ask the one-cone question `_relint_meets_valuation`, so what
is compared is the relation built on it: `orbit_poset` on the type-C
chain, quotient and wonderful fans, on the wonderful fans of the other
types up to rank 6 and on hand-built colored fans, and on the E8 wonderful
fan with one elimination per cone."""

from weylfans import spherical
from weylfans.linalg import _unit
from weylfans.polyhedra import RationalCone, cone, contains, zero_cone
from weylfans.rootsys import build_root_system
from weylfans.spherical import (
    ColoredCone,
    ColoredFan,
    OrbitPoset,
    _relint_meets_valuation,
    color_symbol,
    orbit_poset,
    standard_rho_table,
    valuation_cone,
)

# --- the code before, kept as the oracle --------------------------------------


def _old_is_colored_face(a, b, vcone, rho):
    if not set(a.cone.gens) <= set(b.cone.gens):
        return False
    if not _relint_meets_valuation(a.cone, vcone):
        return False
    return a.colors == frozenset(d for d in b.colors if contains(a.cone, rho[d]))


def _old_orbit_poset(f):
    nodes = f.cones
    le = tuple(
        tuple(_old_is_colored_face(a, b, f.valuation_cone, f.rho_table) for b in nodes)
        for a in nodes
    )
    return OrbitPoset(nodes=nodes, less_equal=le)


# --- inputs -------------------------------------------------------------------

WONDERFUL_TYPES = (
    [f"{family}{n}" for family in "ABC" for n in range(2, 7)] + ["D4", "D5", "D6", "E6", "F4", "G2"]
)


def _library_fans():
    """(root system, colored fan) for the chain, quotient and wonderful fans
    of C2-C6 and the wonderful fans of the other types."""
    for n in range(2, 7):
        rs = build_root_system(f"C{n}")
        for f in [*spherical.blowup_chain_fans(n), spherical.z_colored_fan(n)]:
            yield rs, f
    for label in WONDERFUL_TYPES:
        rs = build_root_system(label)
        yield rs, spherical.wonderful_colored_fan(rs)


def _hand_fan(rs, cones):
    return ColoredFan(
        rank=rs.rank,
        cones=tuple(cones),
        valuation_cone=valuation_cone(rs),
        rho_table=standard_rho_table(rs),
        colors=tuple(color_symbol(j) for j in range(1, rs.rank + 1)),
        boundary_names={},
    )


def _hand_fans():
    """Colored fans no library constructor builds: generators out of sorted
    order, a color whose image is off its cone, a cone whose relative
    interior misses the valuation cone, only the zero cone, and a color with
    no lattice image, which both relations refuse alike."""
    c3 = build_root_system("C3")
    rho = standard_rho_table(c3)
    d1, d2 = color_symbol(1), color_symbol(2)
    e1, e2, e3 = (_unit(3, i, -1) for i in range(3))
    zero = ColoredCone(cone=zero_cone(3), colors=frozenset())
    unsorted = RationalCone(3, (e3, rho[d1], e1))
    yield c3, _hand_fan(c3, [
        zero,
        ColoredCone(cone=unsorted, colors=frozenset({d1})),
        ColoredCone(cone=RationalCone(3, (e3, e1)), colors=frozenset()),
        ColoredCone(cone=RationalCone(3, (rho[d1], e1)), colors=frozenset({d1})),
        ColoredCone(cone=cone([e1, e3], ambient_dim=3), colors=frozenset()),
    ])
    yield c3, _hand_fan(c3, [
        zero,
        ColoredCone(cone=cone([e1, e2], ambient_dim=3), colors=frozenset({d2})),
        ColoredCone(cone=cone([e1], ambient_dim=3), colors=frozenset({d2})),
        ColoredCone(cone=cone([e1], ambient_dim=3), colors=frozenset()),
    ])
    yield c3, _hand_fan(c3, [
        zero,
        ColoredCone(cone=cone([rho[d1]], ambient_dim=3), colors=frozenset({d1})),
        ColoredCone(cone=cone([rho[d1], rho[d2]], ambient_dim=3), colors=frozenset({d1, d2})),
        ColoredCone(cone=cone([e1, rho[d1]], ambient_dim=3), colors=frozenset({d1})),
    ])
    yield c3, _hand_fan(c3, [zero])
    yield c3, _hand_fan(c3, [
        zero,
        ColoredCone(cone=cone([e1], ambient_dim=3), colors=frozenset()),
        ColoredCone(cone=cone([e1, e2], ambient_dim=3), colors=frozenset({"D(w9)"})),
    ])


def _outcome(call):
    try:
        return "value", call()
    except Exception as exc:  # the exception is part of the answer compared
        return "raises", type(exc), exc.args


def _counting_eliminations(monkeypatch):
    calls = []
    eliminate = spherical._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(spherical, "_eliminate", counted)
    return calls


# --- orbit_poset --------------------------------------------------------------


def test_orbit_poset_matches_the_pairwise_relation(monkeypatch):
    calls = _counting_eliminations(monkeypatch)
    fans = [*_library_fans(), *_hand_fans()]
    seen = {"below": 0, "not below": 0, "raises": 0, "self not below": 0}
    for _, f in fans:
        calls.clear()
        new = _outcome(lambda: orbit_poset(f))
        if new[0] == "value":
            # one valuation test per colored cone, not one per pair
            assert len(calls) == len(f.cones)
            flat = [x for row in new[1].less_equal for x in row]
            seen["below"] += sum(flat)
            seen["not below"] += len(flat) - sum(flat)
            seen["self not below"] += sum(not new[1].less_equal[i][i] for i in range(len(f.cones)))
        else:
            seen["raises"] += 1
        assert new == _outcome(lambda: _old_orbit_poset(f))
    assert len(fans) == 51 and min(seen.values()) > 0, seen


def test_orbit_poset_of_e8_makes_one_elimination_per_cone(monkeypatch):
    f = spherical.wonderful_colored_fan(build_root_system("E8"))
    calls = _counting_eliminations(monkeypatch)
    poset = orbit_poset(f)
    assert len(calls) == len(f.cones) == 256
    # the boolean lattice on the eight boundary indices
    for i, a in enumerate(poset.nodes):
        for j, b in enumerate(poset.nodes):
            assert poset.less_equal[i][j] == (set(a.cone.gens) <= set(b.cone.gens))

