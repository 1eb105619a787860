"""Acceptance criteria, one test per criterion.

Every check is exact (integer or rational equality); the stated wall-clock
budgets are asserted where the criteria carry them.  Each test prints one
pass line; pytest shows it on failure and under -s.
"""

import random
import zlib
import time
from fractions import Fraction as Q

import pytest

from weylfans import lattice as lat
from weylfans import spherical as sph
from weylfans.isotropic import (
    check_equal_intersections,
    lg_orbit_dim,
    og_orbit_data,
    orthogonal_doubled,
    symplectic_doubled,
    tau_fixed_locus_check,
)
from weylfans.linalg import qm, qv, rank
from weylfans.polyhedra import cone, contains, covered_by, is_complete, is_smooth
from weylfans.rootsys import (
    build_root_system,
    coordinate_swap,
    orbit,
    sign_flip,
    simple_reflection,
    subgroup_closure,
    weyl_enumerate,
    weyl_order,
)
from weylfans.toric import (
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

RANK_LE8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.fixture(scope="module", autouse=True)
def warm_caches():
    # construction costs are excluded from the timed criteria
    for label in RANK_LE8:
        build_root_system(label)
    yield


def _passed(n, text):
    print(f"PASS criterion {n}: {text}")


def _wprime(label):
    rs = build_root_system(label)
    dim = rs.ambient_dim
    gens = [coordinate_swap(dim, 0, dim - 1), sign_flip(dim, [0, 1])]
    return rs, subgroup_closure(gens, root_system=rs)


def test_criterion_01_weyl_orders():
    start = time.monotonic()
    assert weyl_order(build_root_system("G2")) == 12
    assert weyl_order(build_root_system("E8")) == 696729600 == 2**14 * 3**5 * 5**2 * 7
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passed(1, f"Weyl orders 12 and 696729600 in {elapsed:.3f}s")


def test_criterion_02_exceptional_toric_surfaces():
    rs_g2 = build_root_system("G2")
    rs_f4, wp_f4 = _wprime("F4")
    rs_e8, wp_e8 = _wprime("E8")
    start = time.monotonic()
    chamber = weyl_chamber_fan(rs_g2)
    assert is_complete(chamber)
    assert all(is_smooth(c) for c in chamber.maximal_cones)
    g2_surface = toric_surface(chamber)
    assert picard_number(g2_surface) == 10
    assert picard_number(g2_surface) + 2 == weyl_order(rs_g2)
    for rs, group in ((rs_f4, wp_f4), (rs_e8, wp_e8)):
        f = subtorus_closure_fan(rs, group)
        assert is_complete(f)
        assert len(f.rays()) == 8
        surface = toric_surface(f)
        assert picard_number(surface) == 6
        assert picard_number(surface) + 2 == len(group)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passed(2, f"chamber and subtorus surfaces with the stated Picard numbers in {elapsed:.3f}s")


def test_criterion_03_wprime_data():
    rs, group = _wprime("F4")
    assert len(group) == 8
    o1 = set(orbit(group, rs.fundamental_coweights[0]))
    o4 = set(orbit(group, rs.fundamental_coweights[3]))
    assert o1 == {qv(v) for v in [(1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, 1), (-1, 0, 0, -1)]}
    assert o4 == {qv(v) for v in [(2, 0, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, -2)]}
    surface = toric_surface(subtorus_closure_fan(rs, group))
    partition = ray_orbit_partition(surface, group)
    assert partition == (4, 4)
    assert all(size >= 2 for size in partition)
    _passed(3, "subgroup order 8 with exact coweight orbits and ray partition {4,4}")


def test_criterion_04_invariant_picard_rank():
    from weylfans.polyhedra import _primitivize

    rs, group = _wprime("F4")
    f = subtorus_closure_fan(rs, group)
    rays = list(f.rays())
    index = {r: i for i, r in enumerate(rays)}
    perms = [tuple(index[img] for img in _primitivize([w.apply(r) for r in rays], f.lattice)) for w in group]
    relations = [
        [int(f.maximal_cones[0].lattice_coords(r)[j]) for r in rays] for j in range(2)
    ]
    assert invariant_picard_rank(len(rays), perms, relations) == 2
    _passed(4, "invariant Picard rank of the plane-fan surface equals 2")


def test_criterion_05_lattice_coincidence():
    indices = {label: lat.weight_root_index(build_root_system(label)) for label in RANK_LE8}
    assert sorted(t for t, v in indices.items() if v == 1) == ["E8", "F4", "G2"]
    nonprimitive = {}
    for label in RANK_LE8:
        rs = build_root_system(label)
        bad = [
            i
            for i in range(1, rs.rank + 1)
            if not lat.is_primitive_in_weight_lattice(lat.simple_root(rs, i))
        ]
        if bad:
            nonprimitive[label] = bad
    # the long simple root of the symplectic series, under all its labels:
    # A1 and B2 are the rank-one and rank-two symplectic systems in disguise
    expected = {"A1": [1], "B2": [1]}
    expected.update({f"C{n}": [n] for n in range(2, 9)})
    assert nonprimitive == expected
    _passed(5, "index one exactly for the three exceptional types; symplectic long-root exception")


def test_criterion_06_type_a_identities():
    for n in range(2, 13):
        rs = build_root_system(f"A{n}")
        w1 = lat.to_basis(lat.fundamental_weight(rs, 1), "simple_root")
        assert w1.coords == tuple(Q(1) - Q(i, n + 1) for i in range(1, n + 1))
        degrees = [lat.minimal_curve_degree(lat.simple_root(rs, i)) for i in range(1, n + 1)]
        assert degrees == [Q(1)] + [Q(0)] * (n - 2) + [Q(1)]
    _passed(6, "first-weight expansion and curve degree vector for ranks 2..12")


def test_criterion_07_type_b_identities():
    for n in range(2, 13):
        rs = build_root_system(f"B{n}")
        wn = lat.to_basis(lat.fundamental_weight(rs, n), "simple_root")
        assert wn.coords == tuple(Q(k, 2) for k in range(1, n + 1))
        assert lat.minimal_curve_degree(lat.fundamental_weight(rs, n)) == 1
    pres = sph.picard_presentation(sph.spinor_divisor_ledger(build_root_system("B3")))
    assert pres.free_rank == 1 and pres.torsion == ()
    assert pres.classes["OG(1)"] == (2,)
    assert pres.classes[sph.color_symbol(3)] == (1,)
    _passed(7, "spin weight identities and the spinor cokernel for ranks 2..12")


def test_criterion_08_type_c_contraction():
    start = time.monotonic()
    for n in range(2, 7):
        rs = build_root_system(f"C{n}")
        for k in range(1, n + 1):
            ck = sph.chain_cone(rs, k)
            minus_k = tuple(Q(-1 if i == k - 1 else 0) for i in range(n))
            assert contains(ck.cone, minus_k, strict=True)
        x_fan = sph.wonderful_colored_fan(rs)
        z_fan = sph.z_colored_fan(n)
        assert sph.extends_to_morphism(x_fan, z_fan)
        assert not sph.extends_to_morphism(z_fan, x_fan)
        chain = sph.blowup_chain_fans(n)
        for i in range(n - 1):
            assert sph.extends_to_morphism(chain[i], chain[i + 1])
            assert not sph.extends_to_morphism(chain[i + 1], chain[i])
    for n in range(2, 5):
        z_fan = sph.z_colored_fan(n)
        cones = [cc.cone for cc in z_fan.cones]
        assert covered_by(z_fan.valuation_cone, cones)
        assert covered_by(z_fan.valuation_cone, cones, shortcut=False)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passed(8, f"contraction chain and valuation coverage in {elapsed:.2f}s")


def test_criterion_09_orbit_dimensions():
    for n in range(1, 26):
        for k in range(n + 1):
            assert lg_orbit_dim(n, k) == (2 * n * n + n) - k * k
            rec = og_orbit_data(n, k)
            assert rec.codim == k * k
            assert rec.base_dim + rec.fiber_dim == rec.orbit_dim
    _passed(9, "stratum codimension k^2 and base-fiber consistency up to rank 25")


def test_criterion_10_sampled_linear_algebra():
    start = time.monotonic()
    for n in (2, 3):
        rep = check_equal_intersections(symplectic_doubled(n), 1000, seed=0)
        assert rep.violations == 0 and rep.samples == 1000
    rep_o = check_equal_intersections(orthogonal_doubled(2), 500, seed=0)
    assert rep_o.violations == 0 and rep_o.samples == 500
    rep_t = tau_fixed_locus_check(symplectic_doubled(2), 500, seed=0)
    assert rep_t.violations == 0
    # seed determinism of the reports
    assert check_equal_intersections(symplectic_doubled(2), 5, seed=0) == check_equal_intersections(
        symplectic_doubled(2), 5, seed=0
    )
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passed(10, f"2500 sampled subspaces with zero violations in {elapsed:.1f}s")


def test_criterion_11_surface_blowup_ledgers():
    plane = blowup_boundary_point(projective_plane_ledger(), "y0", ["H"])
    assert plane.components == (("H", 3), ("E1", 2))
    quadric = blowup_boundary_point(quadric_surface_ledger(), "corner", ["H1", "H2"])
    assert quadric.components == (("H1", 2), ("H2", 2), ("E1", 3))
    ruled = blowup_boundary_point(hirzebruch_ledger(1), "y0", ["H1"])
    assert ruled.components == (("H1", 3), ("H2", 2), ("E1", 2))
    for ledger in (plane, quadric, ruled):
        twos = [name for name, coeff in ledger.components if coeff == 2]
        bad = blowup_boundary_point(ledger, "q", [twos[0]])
        violations = coefficient_spectrum(bad).violations
        assert violations and all(coeff < 2 for _, coeff in violations)
    _passed(11, "the three anticanonical ledgers and the forced coefficient violations")


def test_criterion_12_anticanonical():
    for label in RANK_LE8:
        rs = build_root_system(label)
        divisor = sph.wonderful_anticanonical_divisor(rs)
        image = sph.divisor_weight(rs, divisor)
        weight = lat.anticanonical_weight(rs)  # construction certifies regular dominance
        assert image.coords == weight.coords
    a1 = build_root_system("A1")
    assert lat.pair(lat.anticanonical_weight(a1), lat.simple_coroot(a1, 1)) == 4
    _passed(12, "anticanonical divisor matches the regular dominant weight, rank-one degree 4")


def _grid_points(target, resolution=16):
    gens = target.gens
    k = len(gens)
    points = []

    def rec(i, remaining, acc):
        if i == k - 1:
            coeffs = acc + [Q(remaining, resolution)]
            points.append(
                tuple(
                    sum((c * g[j] for c, g in zip(coeffs, gens)), Q(0))
                    for j in range(target.ambient_dim)
                )
            )
            return
        for t in range(remaining + 1):
            rec(i + 1, remaining - t, acc + [Q(t, resolution)])

    rec(0, resolution, [])
    return points


def test_criterion_13_property_suites():
    # basis-change round trips: 1000 fuzz vectors per bundled type
    tags = ["fund_weight", "simple_coroot", "fund_coweight", "ambient", "simple_root"]
    for label in RANK_LE8:
        rs = build_root_system(label)
        rng = random.Random(zlib.crc32(label.encode()))
        for _ in range(1000):
            coords = qv([rng.randint(-9, 9) for _ in range(rs.rank)])
            v = lat.vector(rs, coords, "simple_root")
            tag = rng.choice(tags)
            assert lat.to_basis(lat.to_basis(v, tag), "simple_root").coords == coords

    # reflection closure of every bundled root set
    for label in RANK_LE8:
        rs = build_root_system(label)
        root_set = set(rs.roots)
        for i in range(1, rs.rank + 1):
            s = simple_reflection(rs, i)
            assert all(s.apply(b) in root_set for b in rs.roots)

    # enumeration agrees with the degree-product order for every rank <= 4 type
    for label in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]:
        rs = build_root_system(label)
        assert len(weyl_enumerate(rs)) == weyl_order(rs)

    # coverage decisions against grid sampling on 200 random instances
    rng = random.Random(2024)
    instances = 0
    while instances < 200:
        d = rng.choice([2, 3])
        gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        if rank(qm([qv(g) for g in gens])) < d:
            continue
        target = cone(gens)
        cover = []
        for _ in range(rng.randint(1, 3)):
            try:
                cover.append(cone([[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(1, d))]))
            except Exception:
                pass
        if not cover:
            continue
        instances += 1
        exact = covered_by(target, cover)
        sampled = all(any(contains(c, p) for c in cover) for p in _grid_points(target))
        if exact:
            assert sampled
        if not sampled:
            assert not exact
    _passed(13, "round trips, reflection closure, enumeration cross-check, coverage sampling")


def test_full_casebook_via_cli(capsys):
    from weylfans.cli import main

    start = time.monotonic()
    code = main(["verify", "--all"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 60.0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) == 14
    assert all(line.startswith("[PASS]") for line in lines)
    print("PASS: full verification catalog, one report line per case, exit code 0")
