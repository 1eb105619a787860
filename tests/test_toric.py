import random

import pytest

from weylfans.errors import InvalidInput
from weylfans.linalg import qv
from weylfans.polyhedra import is_complete, is_smooth
from weylfans.rootsys import (
    build_root_system,
    coordinate_swap,
    sign_flip,
    simple_reflection,
    subgroup_closure,
    weyl_enumerate,
    weyl_order,
)
from weylfans.toric import (
    MINIMAL_SURFACE_STRUCTURES,
    blowup_boundary_point,
    coefficient_spectrum,
    hirzebruch_ledger,
    invariant_picard_rank,
    picard_number,
    projective_plane_ledger,
    quadric_surface_ledger,
    ray_orbit_partition,
    subtorus_closure_fan,
    toric_surface,
    weyl_chamber_fan,
)


def f4_wprime():
    rs = build_root_system("F4")
    return rs, subgroup_closure([coordinate_swap(4, 0, 3), sign_flip(4, [0, 1])], root_system=rs)


def e8_wprime():
    rs = build_root_system("E8")
    return rs, subgroup_closure([coordinate_swap(8, 0, 7), sign_flip(8, [0, 1])], root_system=rs)


def test_g2_chamber_fan():
    rs = build_root_system("G2")
    f = weyl_chamber_fan(rs)
    assert len(f.maximal_cones) == 12
    assert all(is_smooth(c) for c in f.maximal_cones)
    assert is_complete(f)
    surface = toric_surface(f)
    assert picard_number(surface) == 10
    assert ray_orbit_partition(surface, weyl_enumerate(rs)) == (6, 6)


def test_small_chamber_fans():
    a1 = weyl_chamber_fan(build_root_system("A1"))
    assert len(a1.maximal_cones) == 2 and len(a1.rays()) == 2
    a2 = weyl_chamber_fan(build_root_system("A2"))
    assert len(a2.maximal_cones) == 6
    assert is_complete(a2)


def test_chamber_fan_bound():
    from weylfans.errors import BoundExceeded

    with pytest.raises(BoundExceeded):
        weyl_chamber_fan(build_root_system("E6"))


def test_f4_subtorus_fan():
    rs, group = f4_wprime()
    f = subtorus_closure_fan(rs, group)
    assert len(f.maximal_cones) == 8
    rays = set(f.rays())
    assert rays == {
        qv(v)
        for v in [
            (1, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1),
            (1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, 1), (-1, 0, 0, -1),
        ]
    }
    surface = toric_surface(f)
    assert picard_number(surface) == 6
    assert ray_orbit_partition(surface, group) == (4, 4)
    assert len(group) == picard_number(surface) + 2


def test_e8_subtorus_fan():
    rs, group = e8_wprime()
    f = subtorus_closure_fan(rs, group)
    assert len(f.maximal_cones) == 8
    assert len(f.rays()) == 8
    surface = toric_surface(f)
    assert picard_number(surface) == 6
    assert ray_orbit_partition(surface, group) == (4, 4)
    assert len(group) == picard_number(surface) + 2


def test_g2_subtorus_recovers_chamber_fan():
    rs = build_root_system("G2")
    group = weyl_enumerate(rs)
    f = subtorus_closure_fan(rs, group, plane=rs.fundamental_coweights)
    assert len(f.maximal_cones) == 12
    assert len(f.rays()) == 12
    # picard + 2 equals the group order here as well
    assert picard_number(toric_surface(f)) + 2 == weyl_order(rs)


def test_subtorus_rejects_non_stabilizing_group():
    rs = build_root_system("F4")
    s1 = simple_reflection(rs, 1)  # moves the plane of the outer coweights
    with pytest.raises(InvalidInput):
        subtorus_closure_fan(rs, [s1])
    # a stabilizing but too-small group fails to tile the plane
    from weylfans.rootsys import identity_element

    with pytest.raises(InvalidInput):
        subtorus_closure_fan(rs, [identity_element(4)])


def test_ray_orbit_partition_errors_and_trivial_group():
    from weylfans.rootsys import identity_element

    rs, group = f4_wprime()
    surface = toric_surface(subtorus_closure_fan(rs, group))
    assert ray_orbit_partition(surface, [identity_element(4)]) == (1,) * 8
    s1 = simple_reflection(rs, 1)
    with pytest.raises(InvalidInput):
        ray_orbit_partition(surface, [s1])


def test_invariant_picard_rank():
    rs, group = f4_wprime()
    f = subtorus_closure_fan(rs, group)
    surface = toric_surface(f)
    rays = list(f.rays())
    index = {r: i for i, r in enumerate(rays)}
    from weylfans.polyhedra import _primitivize

    perms = [tuple(index[img] for img in _primitivize([w.apply(r) for r in rays], f.lattice)) for w in group]
    relations = [
        [int(f.maximal_cones[0].lattice_coords(r)[j]) for r in rays] for j in range(2)
    ]
    assert invariant_picard_rank(8, perms, relations) == 2
    # trivial cases
    assert invariant_picard_rank(3, [], []) == 3
    assert invariant_picard_rank(3, [], [[1, 0, 0]]) == 2
    assert invariant_picard_rank(2, [(1, 0)], []) == 1
    with pytest.raises(InvalidInput):
        invariant_picard_rank(2, [(0, 0)], [])
    with pytest.raises(InvalidInput):
        invariant_picard_rank(2, [(1, 0)], [[1, 0]])  # swap moves the relation off-span


def test_blowup_ledger_plane():
    led = projective_plane_ledger()
    assert coefficient_spectrum(led).counts == ((3, 1),)  # untouched plane
    led1 = blowup_boundary_point(led, "y0", ["H"])
    assert led1.components == (("H", 3), ("E1", 2))
    led2 = blowup_boundary_point(led1, "y1", ["H"])
    spectrum = coefficient_spectrum(led2)
    assert spectrum.counts == ((3, 1), (2, 2))
    assert spectrum.violations == ()


def test_blowup_ledger_quadric():
    led = blowup_boundary_point(quadric_surface_ledger(), "corner", ["H1", "H2"])
    assert led.coefficient("E1") == 3
    led2 = blowup_boundary_point(led, "y1", ["E1"])
    assert coefficient_spectrum(led2).counts == ((3, 1), (2, 3))


def test_blowup_ledger_ruled():
    led = blowup_boundary_point(hirzebruch_ledger(1), "y0", ["H1"])
    assert led.coefficient("E1") == 2
    assert coefficient_spectrum(led).counts == ((3, 1), (2, 2))
    # for twist two and higher there are three distinct coefficients
    led2 = blowup_boundary_point(hirzebruch_ledger(2), "y0", ["H1"])
    assert len(coefficient_spectrum(led2).counts) == 3


def test_blowup_on_single_coefficient_two_component_always_violates():
    rng = random.Random(3)
    for _ in range(50):
        led = rng.choice(
            [projective_plane_ledger(), quadric_surface_ledger(), hirzebruch_ledger(rng.randint(1, 4))]
        )
        for _ in range(rng.randint(0, 4)):
            through = [rng.choice(led.names())]
            if rng.random() < 0.3 and len(led.names()) > 1:
                other = rng.choice([n for n in led.names() if n != through[0]])
                through.append(other)
            led = blowup_boundary_point(led, "p", through)
        twos = [n for n, c in led.components if c == 2]
        if not twos:
            continue
        bad = blowup_boundary_point(led, "q", [rng.choice(twos)])
        assert any(c == 1 for _, c in coefficient_spectrum(bad).violations)


def test_blowup_ledger_errors():
    led = projective_plane_ledger()
    with pytest.raises(InvalidInput):
        blowup_boundary_point(led, "p", [])
    with pytest.raises(InvalidInput):
        blowup_boundary_point(led, "p", ["H", "X", "Y"])
    with pytest.raises(InvalidInput):
        blowup_boundary_point(led, "p", ["missing"])
    with pytest.raises(InvalidInput):
        hirzebruch_ledger(0)


def test_reference_structures_table():
    surfaces = [row["surface"] for row in MINIMAL_SURFACE_STRUCTURES]
    assert surfaces == ["P2", "P1xP1", "F_k, k>=1"]
    assert MINIMAL_SURFACE_STRUCTURES[1]["structures"] == 1
