import random
import time

import pytest

from weylfans.errors import BoundExceeded, InvalidInput, InvariantViolation
from weylfans.linalg import qm, qv, rank
from weylfans.polyhedra import _lattice_ints, is_complete, is_smooth
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
    _ray_maps,
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


def test_chamber_fan_bound(monkeypatch):
    """E7's 2,903,040 chambers are refused under the default bound before
    the walk sets up its first row, and an explicit bound refuses a group
    just above it; E6's 51,840 chambers are the default bound."""
    from weylfans import toric

    def no_walk(*args):
        raise AssertionError("the walk started past the bound")

    assert toric.MAX_CHAMBERS == weyl_order(build_root_system("E6")) == 51_840
    for name in ("_common_ints", "_dual_rows"):
        monkeypatch.setattr(toric, name, no_walk)
    with pytest.raises(BoundExceeded, match="order 2903040, above the bound 51840"):
        weyl_chamber_fan(build_root_system("E7"))
    with pytest.raises(BoundExceeded, match="order 48, above the bound 47"):
        weyl_chamber_fan(build_root_system("B3"), bound=47)


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
    for size, row in ((2, [1, 0, 0]), (3, [1, 0])):  # one entry too many, one too few
        with pytest.raises(InvalidInput, match="^relation rows need one entry per basis element$"):
            invariant_picard_rank(size, [], [row])


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


# --- the closure-based invariant rank, kept as the oracle -------------------


def _old_invariant_picard_rank(basis_size, action, relations, closure_bound=20000):
    perms = []
    for p in action:
        p = tuple(int(x) for x in p)
        if sorted(p) != list(range(basis_size)):
            raise InvalidInput("action entries must be permutations of the basis")
        perms.append(p)
    if not perms:
        perms = [tuple(range(basis_size))]
    closed = {tuple(range(basis_size))}
    frontier = list(closed)
    while frontier:
        g = frontier.pop()
        for p in perms:
            comp = tuple(g[p[i]] for i in range(basis_size))
            if comp not in closed:
                if len(closed) >= closure_bound:
                    raise BoundExceeded("permutation closure exceeded the bound")
                closed.add(comp)
                frontier.append(comp)
    rel_rows = qm(relations) if relations else ()
    rel_rank = rank(rel_rows) if rel_rows else 0
    for g in closed:
        for row in rel_rows:
            permuted = tuple(row[g[i]] for i in range(basis_size))
            if rank(qm(list(rel_rows) + [qv(permuted)])) != rel_rank:
                raise InvalidInput("action does not preserve the relation span")
    remaining = set(range(basis_size))
    indicators = []
    orbit_count = 0
    while remaining:
        seed = remaining.pop()
        orbit = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for g in closed:
                if g[x] in remaining:
                    remaining.remove(g[x])
                    orbit.add(g[x])
                    frontier.append(g[x])
        orbit_count += 1
        indicators.append(qv([1 if i in orbit else 0 for i in range(basis_size)]))
    result = rank(qm(list(indicators) + list(rel_rows))) - rel_rank
    if result > orbit_count:
        raise InvariantViolation("invariant rank exceeded the orbit count")
    return result


def _outcome(compute):
    try:
        return compute()
    except InvalidInput as exc:
        return ("refused", str(exc))


def _random_action(rng, n):
    """Up to three maps on n points, now and then one that is no permutation,
    and relation rows: random ones, which a nontrivial action rarely keeps
    the span of, or the images of random rows under the maps and their
    compositions, a span the action keeps, cut to sums over orbits once
    there are more than a dozen."""
    maps = []
    for _ in range(rng.randint(0, 3)):
        p = list(range(n))
        rng.shuffle(p)
        if rng.random() < 0.1:
            p[0] = p[-1]
        maps.append(tuple(p))
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5 and all(sorted(p) == list(range(n)) for p in maps):
        frontier, orbit = list(map(tuple, rows)), set(map(tuple, rows))
        while frontier:
            row = frontier.pop()
            for p in maps:
                image = tuple(row[p[i]] for i in range(n))
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        rows = sorted(orbit)
        if len(rows) > 12:
            rows = [[sum(col) for col in zip(*rows)]]
    return maps, rows


def test_invariant_picard_rank_matches_closure_version():
    rng = random.Random(1307)
    seen = {"rank": 0, "span": 0, "permutation": 0}
    for _ in range(400):
        n = rng.randint(1, 6)
        maps, rows = _random_action(rng, n)
        got = _outcome(lambda: invariant_picard_rank(n, maps, rows))
        assert got == _outcome(lambda: _old_invariant_picard_rank(n, maps, rows)), (n, maps, rows)
        if isinstance(got, int):
            seen["rank"] += 1
        else:
            seen["span" if "span" in got[1] else "permutation"] += 1
    assert min(seen.values()) > 20, seen
    # the casebook's data: the rays of the F4 and E8 subtorus surfaces, their
    # lattice coordinates as relations, the whole group and its generators
    for rs, group in (f4_wprime(), e8_wprime()):
        f = subtorus_closure_fan(rs, group)
        coords, _ = _lattice_ints(f.lattice, f.rays())
        relations = [list(row) for row in zip(*coords)]
        for g in (group, group[1:3], [group[0]]):
            maps = _ray_maps(f, g)
            assert invariant_picard_rank(8, maps, relations) == _old_invariant_picard_rank(8, maps, relations)
        assert invariant_picard_rank(8, _ray_maps(f, group), relations) == 2


def test_invariant_picard_rank_forms_no_closure():
    """A transposition and a 9-cycle generate all 362,880 permutations of 9
    points; the closure version refuses them, the generators answer at once."""
    swap, cycle = (1, 0, *range(2, 9)), (*range(1, 9), 0)
    with pytest.raises(BoundExceeded):
        _old_invariant_picard_rank(9, [swap, cycle], [])
    start = time.perf_counter()
    assert invariant_picard_rank(9, [swap, cycle], []) == 1
    assert invariant_picard_rank(9, [swap, cycle], [[1] * 9]) == 0
    assert time.perf_counter() - start < 0.1
