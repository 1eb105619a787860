from fractions import Fraction as Q

import pytest

from weylfans import lattice as lat
from weylfans import spherical
from weylfans.errors import InvalidInput
from weylfans.polyhedra import cone, contains
from weylfans.rootsys import build_root_system
from weylfans.spherical import (
    ColoredCone,
    ColoredFan,
    DivisorLedger,
    anticanonical_divisor,
    blowup_chain_fans,
    chain_cone,
    closed_orbit_restriction,
    color_symbol,
    colored_fan_from_top,
    extends_to_morphism,
    is_complete_embedding,
    orbit_poset,
    picard_presentation,
    spinor_divisor_ledger,
    standard_rho_table,
    valuation_cone,
    validate_colored_cone,
    wonderful_anticanonical_divisor,
    wonderful_colored_fan,
    wonderful_divisor_ledger,
    z_colored_fan,
    divisor_weight,
)


def test_wonderful_fan_b3():
    rs = build_root_system("B3")
    f = wonderful_colored_fan(rs)
    assert len(f.cones) == 8
    assert all(cc.colors == frozenset() for cc in f.cones)
    assert sorted(name for name, _ in f.boundary_divisors()) == ["D1", "D2", "D3"]
    poset = orbit_poset(f)
    # boolean lattice on three boundary indices: the cone ordering matches
    # subset inclusion of the generator sets
    for i, a in enumerate(poset.nodes):
        for j, b in enumerate(poset.nodes):
            assert poset.less_equal[i][j] == (set(a.cone.gens) <= set(b.cone.gens))
    assert is_complete_embedding(f)


def test_wonderful_fan_small_and_rank4():
    a1 = wonderful_colored_fan(build_root_system("A1"))
    assert len(a1.cones) == 2
    assert {cc.cone.dim for cc in a1.cones} == {0, 1}
    c4 = wonderful_colored_fan(build_root_system("C4"))
    top = max(c4.cones, key=lambda cc: cc.cone.dim)
    assert top.cone.dim == 4


def test_strict_convexity_flag():
    f = wonderful_colored_fan(build_root_system("A2"))
    assert any(cc.cone.dim == 0 for cc in f.cones)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_z_fan_chain_structure(n):
    f = z_colored_fan(n)
    assert len(f.cones) == n + 1
    le = orbit_poset(f).less_equal
    assert all(le[i][j] or le[j][i] for i in range(len(le)) for j in range(len(le)))
    assert [name for name, _ in f.boundary_divisors()] == ["Z1"]
    top = max(f.cones, key=lambda cc: cc.cone.dim)
    assert top.colors == frozenset(color_symbol(j) for j in range(1, n))
    rs = build_root_system(f"C{n}")
    for k in range(1, n + 1):
        ck = chain_cone(rs, k)
        minus_k = tuple(Q(-1 if i == k - 1 else 0) for i in range(n))
        assert contains(ck.cone, minus_k, strict=True)


def test_z_fan_validity_requirements():
    with pytest.raises(InvalidInput):
        z_colored_fan(1)


def test_interior_containment_to_rank_6():
    for n in range(2, 7):
        rs = build_root_system(f"C{n}")
        for k in range(1, n + 1):
            ck = chain_cone(rs, k)
            minus_k = tuple(Q(-1 if i == k - 1 else 0) for i in range(n))
            assert contains(ck.cone, minus_k, strict=True)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_extension_decisions(n):
    rs = build_root_system(f"C{n}")
    x_fan = wonderful_colored_fan(rs)
    z_fan = z_colored_fan(n)
    assert extends_to_morphism(x_fan, z_fan)
    assert not extends_to_morphism(z_fan, x_fan)
    assert extends_to_morphism(x_fan, x_fan)


def test_extension_along_a_lattice_map():
    rs = build_root_system("C3")
    x_fan, z_fan = wonderful_colored_fan(rs), z_colored_fan(3)
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    # membership is scale-invariant, so a positive multiple of the identity
    # decides as no map does; its negative sends the valuation cone away
    for c in (1, 2, Q(1, 3)):
        scaled = [[c * x for x in row] for row in identity]
        assert extends_to_morphism(x_fan, z_fan, lattice_map=scaled)
        assert not extends_to_morphism(z_fan, x_fan, lattice_map=scaled)
    negated = [[-x for x in row] for row in identity]
    assert not extends_to_morphism(x_fan, x_fan, lattice_map=negated)
    # rows of the wrong length, and the wrong number of rows
    for shape in ([row + [0] for row in identity], identity + [[0, 0, 1]]):
        with pytest.raises(InvalidInput):
            extends_to_morphism(x_fan, z_fan, lattice_map=shape)


def _old_extends_to_morphism(source, target, lattice_map=None, dominant_colors=()):
    """One contains call per mapped generator and target cone."""
    dominant = frozenset(dominant_colors)
    if lattice_map is not None:
        if len(lattice_map) != target.rank or any(len(row) != source.rank for row in lattice_map):
            raise InvalidInput(f"lattice map must be {target.rank} rows of length {source.rank}")
    for cc in source.cones:
        mapped = [
            g if lattice_map is None else tuple(sum(Q(a) * b for a, b in zip(row, g)) for row in lattice_map)
            for g in cc.cone.gens
        ]
        if not any(
            all(contains(tc.cone, g) for g in mapped) and all(d in dominant or d in tc.colors for d in cc.colors)
            for tc in target.cones
        ):
            return False
    return True


def _extension_outcome(extends, *args, **kwargs):
    try:
        return extends(*args, **kwargs)
    except InvalidInput as exc:
        return str(exc)


def _with_cones(f: ColoredFan, cones) -> ColoredFan:
    return ColoredFan(f.rank, cones, f.valuation_cone, f.rho_table, f.colors, f.boundary_names)


def test_extension_scales_each_generator_once(monkeypatch):
    """Every ordered pair among the chain, quotient and wonderful fans of
    ranks 2-4, with and without a lattice map and a dominant color, against
    a contains call per generator and target cone; pairs of different rank
    refuse with the same message, unless no source cone has a generator or
    the target has no cone."""
    fans = []
    for n in range(2, 5):
        fans += [*blowup_chain_fans(n), z_colored_fan(n), wonderful_colored_fan(build_root_system(f"C{n}"))]
    zero = next(cc for cc in fans[0].cones if not cc.cone.gens)
    fans += [_with_cones(fans[0], (zero,)), _with_cones(fans[-1], ())]
    scaled = []
    real = spherical._point_ints
    monkeypatch.setattr(spherical, "_point_ints", lambda v: scaled.append(v) or real(v))
    seen = {True: 0, False: 0, "refused": 0}
    for source in fans:
        for target in fans:
            maps = [None]
            if source.rank == target.rank:
                maps.append([[2 * int(i == j) for j in range(source.rank)] for i in range(target.rank)])
            for lattice_map in maps:
                for dominant in ((), ("D(w1)",)):
                    del scaled[:]
                    got = _extension_outcome(extends_to_morphism, source, target, lattice_map, dominant)
                    assert got == _extension_outcome(_old_extends_to_morphism, source, target, lattice_map, dominant)
                    assert len(scaled) <= sum(cc.cone.dim for cc in source.cones)
                    seen["refused" if isinstance(got, str) else got] += 1
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize("n", [2, 3, 4])
def test_blowup_chain(n):
    rs = build_root_system(f"C{n}")
    chain = blowup_chain_fans(n)
    assert len(chain) == n
    x_keys = {cc.key() for cc in wonderful_colored_fan(rs).cones}
    z_keys = {cc.key() for cc in z_colored_fan(n).cones}
    assert {cc.key() for cc in chain[0].cones} == x_keys
    assert {cc.key() for cc in chain[-1].cones} == z_keys
    for i in range(n - 1):
        assert extends_to_morphism(chain[i], chain[i + 1])
        assert not extends_to_morphism(chain[i + 1], chain[i])


def test_is_complete_embedding():
    from weylfans.polyhedra import zero_cone

    for n in (2, 3, 4):
        f = z_colored_fan(n)
        assert is_complete_embedding(f)
    rs = build_root_system("A2")
    origin_only = colored_fan_from_top(rs, ColoredCone(cone=zero_cone(2), colors=frozenset()))
    assert not is_complete_embedding(origin_only)
    assert len(orbit_poset(origin_only).nodes) == 1


def test_colored_cone_validation():
    rs = build_root_system("C2")
    rho = standard_rho_table(rs)
    vcone = valuation_cone(rs)
    # a cone whose interior misses the valuation cone is rejected
    bad = ColoredCone(cone=cone([rho[color_symbol(1)]], ambient_dim=2), colors=frozenset({color_symbol(1)}))
    with pytest.raises(InvalidInput):
        validate_colored_cone(bad, vcone, rho)
    # a generator that is neither a valuation element nor a color image
    bad2 = ColoredCone(cone=cone([(1, 0)], ambient_dim=2), colors=frozenset())
    with pytest.raises(InvalidInput):
        validate_colored_cone(bad2, vcone, rho)
    # a color mapping outside its own cone
    bad3 = ColoredCone(cone=cone([(-1, 0)], ambient_dim=2), colors=frozenset({color_symbol(1)}))
    with pytest.raises(InvalidInput):
        validate_colored_cone(bad3, vcone, rho)


RANK_LE8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_colored_fan_interiors_disjoint_in_valuation():
    """No two colored cones of a fan share a relative-interior point inside
    the valuation cone, asked of the pairwise block-system oracle."""
    from old_linalg import _old_relints_share_valuation_point

    for f in (wonderful_colored_fan(build_root_system("B3")), z_colored_fan(3)):
        cones = [cc.cone for cc in f.cones]
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                assert not _old_relints_share_valuation_point([cones[i], cones[j]], f.valuation_cone)


def test_picard_presentations():
    for label in RANK_LE8:
        rs = build_root_system(label)
        pres = picard_presentation(wonderful_divisor_ledger(rs))
        assert pres.free_rank == rs.rank
        assert pres.torsion == ()
    empty = picard_presentation(DivisorLedger(symbols=("A", "B"), relations=()))
    assert empty.free_rank == 2
    assert empty.classes["A"] == (1, 0)
    torsion = picard_presentation(DivisorLedger(symbols=("A",), relations=((2,),)))
    assert torsion.free_rank == 0 and torsion.torsion == (2,)
    with pytest.raises(InvalidInput):
        DivisorLedger(symbols=("A",), relations=((1, 2),))


def test_spinor_presentation():
    pres = picard_presentation(spinor_divisor_ledger(build_root_system("B3")))
    assert pres.free_rank == 1 and pres.torsion == ()
    assert pres.classes["OG(1)"] == (2,)
    assert pres.classes[color_symbol(3)] == (1,)
    assert pres.classes[color_symbol(1)] == (2,)
    with pytest.raises(InvalidInput):
        spinor_divisor_ledger(build_root_system("C3"))


def test_anticanonical_divisors():
    b3 = build_root_system("B3")
    div = wonderful_anticanonical_divisor(b3)
    assert div.coefficient("D(w1)") == 2
    assert div.coefficient("D(w2)") == 2
    assert div.coefficient("D1") == 1
    assert div.coefficient("absent") == 0
    image = divisor_weight(b3, div)
    assert image.coords == lat.anticanonical_weight(b3).coords

    a1 = build_root_system("A1")
    div1 = wonderful_anticanonical_divisor(a1)
    image1 = divisor_weight(a1, div1)
    assert lat.pair(image1, lat.simple_coroot(a1, 1)) == 4

    f = wonderful_colored_fan(b3)
    with pytest.raises(InvalidInput):
        anticanonical_divisor(f, {})


def test_closed_orbit_restriction():
    c3 = build_root_system("C3")
    for k in (1, 2, 3):
        left, right = closed_orbit_restriction(c3, k)
        assert left.coords == right.coords
    a3 = build_root_system("A3")
    left, right = closed_orbit_restriction(a3, 1)
    assert left.coords == (Q(0), Q(0), Q(1))
    assert right.coords == (Q(1), Q(0), Q(0))
    b3 = build_root_system("B3")
    for k in (1, 2, 3):
        left, right = closed_orbit_restriction(b3, k)
        assert left.coords == right.coords
    with pytest.raises(InvalidInput):
        closed_orbit_restriction(c3, 4)


def test_colored_face_enumeration_is_bounded(monkeypatch):
    from weylfans import spherical
    from weylfans.errors import BoundExceeded
    from weylfans.spherical import MAX_COLORED_FACES, _colored_faces

    def no_face_visited(*args):
        raise AssertionError("a face was visited")

    n = MAX_COLORED_FACES.bit_length()  # the least rank with too many faces
    orthant = ColoredCone(cone=cone([[-int(i == j) for j in range(n)] for i in range(n)]), colors=frozenset())
    # the per-top ray kernel, the per-face fallback and every elimination
    for name in ("_extreme_ray_supports", "_relint_meets_valuation", "_eliminate"):
        monkeypatch.setattr(spherical, name, no_face_visited)
    with pytest.raises(BoundExceeded, match="faces"):
        _colored_faces(orthant, orthant.cone, {})
    for call in (lambda: blowup_chain_fans(n), lambda: z_colored_fan(n)):
        with pytest.raises(BoundExceeded, match="faces"):
            call()
    monkeypatch.undo()
    assert len(wonderful_colored_fan(build_root_system("E8")).cones) == 256
