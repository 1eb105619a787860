import random
from fractions import Fraction as Q
from itertools import combinations, product

import pytest
from old_linalg import minors_gcd, vscale

from weylfans.errors import InvalidInput
from weylfans.linalg import _unit, qm, qv, rank
from weylfans.casebook import _e8_wprime, _f4_wprime
from weylfans.polyhedra import (
    Fan,
    RationalCone,
    _lattice_ints,
    cone,
    contains,
    covered_by,
    faces,
    fan,
    is_complete,
    is_smooth,
    star_subdivision,
    zero_cone,
)
from weylfans.rootsys import build_root_system, weyl_enumerate
from weylfans.toric import subtorus_closure_fan


def quadrant():
    return cone([[1, 0], [0, 1]])


def p2_fan():
    return fan([cone([[1, 0], [0, 1]]), cone([[0, 1], [-1, -1]]), cone([[-1, -1], [1, 0]])])


def p1xp1_fan():
    return fan(
        [
            cone([[1, 0], [0, 1]]),
            cone([[0, 1], [-1, 0]]),
            cone([[-1, 0], [0, -1]]),
            cone([[0, -1], [1, 0]]),
        ]
    )


def test_contains():
    c = quadrant()
    assert contains(c, [1, 1], strict=True)
    assert contains(c, [1, 0]) and not contains(c, [1, 0], strict=True)
    assert not contains(c, [-1, 0])
    assert contains(c, [0, 0]) and not contains(c, [0, 0], strict=True)
    z = zero_cone(2)
    assert contains(z, [0, 0], strict=True)
    assert not contains(z, [1, 0])


def test_contains_off_span():
    # the negated second coweight of the rank-four exceptional group lies
    # outside the plane spanned by the first and last coweights
    rs = build_root_system("F4")
    plane_cone = cone([rs.fundamental_coweights[0], rs.fundamental_coweights[3]])
    minus_w2 = [-x for x in rs.fundamental_coweights[1]]
    assert not contains(plane_cone, minus_w2)
    assert not contains(plane_cone, minus_w2, strict=True)


def test_faces():
    assert len(faces(quadrant())) == 4
    assert len(faces(zero_cone(3))) == 1
    g2_chamber = cone(
        [build_root_system("G2").fundamental_coweights[i] for i in (0, 1)]
    )
    assert len(faces(g2_chamber)) == 4


def test_cone_construction():
    assert cone([[1, 0], [2, 0]]).gens == (qv([1, 0]),)
    with pytest.raises(InvalidInput):
        cone([[1, 0], [0, 1], [-1, -1]])
    with pytest.raises(InvalidInput):
        cone([])
    lat = qm([[1, 0, 0, 0], [0, 0, 0, 1]])
    c = cone([[2, 0, 0, 0], [0, 0, 0, 2]], lattice=lat)
    assert c.gens == (qv([0, 0, 0, 1]), qv([1, 0, 0, 0]))
    with pytest.raises(InvalidInput):
        cone([[0, 1, 0, 0]], lattice=lat)
    with pytest.raises(InvalidInput, match="linearly dependent"):
        cone([[1, 0]], lattice=[[1, 0], [2, 0]])


_OFF_SPAN = "lies outside the span of the reference lattice"


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(  # generators shorter than the lattice rows
            lambda: cone([[1, 0], [0, 1]], lattice=[[1, 0, 0], [0, 1, 0]]),
            f"generator (1, 0) {_OFF_SPAN}",
            id="wrong-length",
        ),
        pytest.param(
            lambda: cone([[0, 0], [1, 0]], lattice=()),
            f"generator (1, 0) {_OFF_SPAN}",
            id="empty-lattice",
        ),
        pytest.param(
            lambda: cone([[1, 0, 0], [0, 0, 3]], lattice=[[1, 0, 0], [0, 1, 0]]),
            f"generator (0, 0, 3) {_OFF_SPAN}",
            id="off-span",
        ),
        pytest.param(
            lambda: cone([[1, 0, 0]], lattice=[[1, 0, 0], [Q(1, 2), 0, 0]]),
            "basis rows are linearly dependent",
            id="dependent-rows",
        ),
        pytest.param(
            lambda: RationalCone(2, (), ()).lattice_coords([0, 1]),
            f"vector {_OFF_SPAN}",
            id="coords-empty-lattice",
        ),
        pytest.param(
            lambda: RationalCone(3, (), qm([[1, 0, 0]])).lattice_coords([1, 0]),
            f"vector {_OFF_SPAN}",
            id="coords-wrong-length",
        ),
        pytest.param(
            lambda: is_smooth(RationalCone(3, qm([[0, 1, 0]]), qm([[1, 0, 0]]))),
            f"vector {_OFF_SPAN}",
            id="smooth-off-span",
        ),
        pytest.param(
            lambda: star_subdivision(fan([cone([[2, 0], [0, 1]], lattice=[[2, 0], [0, 1]])]), [0, 0]),
            "zero vector has no direction",
            id="zero-ray",
        ),
    ],
)
def test_reference_lattice_refusals(build, message):
    """Each reader of a reference lattice refuses with one exact message."""
    with pytest.raises(InvalidInput) as refusal:
        build()
    assert type(refusal.value) is InvalidInput
    assert str(refusal.value) == message


def test_is_smooth():
    assert is_smooth(cone([[1, 0], [1, 1]]))
    assert not is_smooth(cone([[1, 0], [1, 2]]))
    assert is_smooth(cone([[1, 0, 0], [0, 1, 0]]))
    assert is_smooth(zero_cone(2))
    # lattice-relative smoothness: same rays, coarser lattice
    lat = qm([[1, 1], [0, 2]])
    assert is_smooth(cone([[1, 1], [0, 2]], lattice=lat))


def _minors_is_smooth(c):
    """Smoothness by the gcd of the maximal minors, one elimination each."""
    if not c.gens:
        return True
    rows, s = _lattice_ints(c.lattice, c.gens)
    return s == 1 and minors_gcd(rows, len(c.gens)) == 1


def _smoothness_cones():
    """Every cone of the chamber fans of rank two to four (translates of the
    dominant chamber, as weyl_chamber_fan builds them, and all their faces),
    the F4 and E8 subtorus cones with their faces, and seeded integer cones
    in dimension 2-5: images of unit vectors under a unimodular matrix, and
    random independent rows, most of them not smooth."""
    for label in ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4"):
        rs = build_root_system(label)
        lattice = qm(rs.fundamental_coweights)
        chambers = {tuple(sorted(w.apply(cw) for cw in lattice)) for w in weyl_enumerate(rs)}
        cones = {f.gens: f for gens in chambers for f in faces(RationalCone(rs.ambient_dim, gens, lattice))}
        yield from cones.values()
    for rs, group in (_f4_wprime(), _e8_wprime()):
        for c in subtorus_closure_fan(rs, group).maximal_cones:
            yield from faces(c)
    rng = random.Random(1733)
    for _ in range(400):
        dim = rng.randint(2, 5)
        if rng.random() < 0.5:
            m = [[int(i == j) for j in range(dim)] for i in range(dim)]
            for _ in range(8):
                i, j = rng.sample(range(dim), 2)
                m[i] = [x + rng.randint(-2, 2) * y for x, y in zip(m[i], m[j])]
            rows = rng.sample(m, rng.randint(1, dim))
        else:
            rows = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
            if rank(qm(rows)) < len(rows):
                continue
        yield cone(rows)


def test_is_smooth_reads_invariant_factors_like_minors():
    smooth = {True: 0, False: 0}
    for c in _smoothness_cones():
        assert is_smooth(c) == _minors_is_smooth(c), c
        smooth[is_smooth(c)] += 1
    assert min(smooth.values()) > 100, smooth


def test_fan_validity():
    f = p2_fan()
    assert len(f.maximal_cones) == 3
    with pytest.raises(InvalidInput):
        fan([cone([[1, 0], [0, 1]]), cone([[1, 1], [1, -1]])])
    with pytest.raises(InvalidInput):
        fan([cone([[1, 0], [0, 1]]), cone([[1, 1]])])
    # a face listed alongside its parent is absorbed
    assert len(fan([quadrant(), cone([[1, 0]])]).maximal_cones) == 1
    with pytest.raises(InvalidInput):
        fan([])


def test_is_complete():
    assert is_complete(p2_fan())
    assert is_complete(p1xp1_fan())
    assert not is_complete(fan([quadrant()]))
    assert not is_complete(fan([quadrant(), cone([[0, 1], [-1, 0]])]))
    one_dim = fan([cone([[1]]), cone([[-1]])])
    assert is_complete(one_dim)
    assert not is_complete(fan([cone([[1]])]))


def test_is_complete_3d_via_orthants():
    from itertools import product

    octants = [
        cone([[s1, 0, 0], [0, s2, 0], [0, 0, s3]])
        for s1, s2, s3 in product((1, -1), repeat=3)
    ]
    assert is_complete(fan(octants))
    assert not is_complete(fan(octants[:7]))


def _old_is_complete(f: Fan) -> bool:
    """The orthant search that wall counts replaced: every sign orthant of the
    lattice basis covered by the maximal cones, below rank 3 read off signs
    and ray counts."""
    r = f.maximal_cones[0].lattice_rank()
    rays = f.rays()
    if rays and rank(qm(rays)) < r:
        return False
    if r == 0:
        return True
    if r == 1:
        coords = [f.maximal_cones[0].lattice_coords(ray) for ray in rays]
        signs = {1 if c[0] > 0 else -1 for c in coords}
        return signs == {1, -1}
    if r == 2:
        if any(c.dim != 2 for c in f.maximal_cones):
            return False
        count = {ray: 0 for ray in rays}
        for c in f.maximal_cones:
            for g in c.gens:
                count[g] += 1
        return all(n == 2 for n in count.values())
    lattice = f.lattice if f.lattice is not None else [_unit(f.ambient_dim, i) for i in range(f.ambient_dim)]
    for signs in product((1, -1), repeat=r):
        orthant = cone([vscale(s, row) for s, row in zip(signs, lattice)], f.lattice, f.ambient_dim)
        if not covered_by(orthant, f.maximal_cones):
            return False
    return True


def _projective_space_fan(n):
    rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    return fan([cone(rays[:i] + rays[i + 1 :]) for i in range(n + 1)])


def _rank_two_subdivisions(rng, fans):
    """Three star subdivisions of each rank-two fan, each at a seeded positive
    combination of the generators of one of its maximal cones."""
    out = []
    for f in [f for f in fans if f.maximal_cones[0].lattice_rank() == 2]:
        for _ in range(3):
            g1, g2 = rng.choice(f.maximal_cones).gens
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            out.append(star_subdivision(f, [a * x + b * y for x, y in zip(g1, g2)]))
    return out


def test_is_complete_matches_orthant_search():
    """Wall counts against the orthant search on chamber fans, subtorus fans,
    star subdivisions of the rank-two ones, projective spaces, and each of
    them with one and with two maximal cones dropped."""
    from weylfans.casebook import _e8_wprime, _f4_wprime
    from weylfans.toric import subtorus_closure_fan, weyl_chamber_fan

    rng = random.Random(2007)
    fans = [
        weyl_chamber_fan(build_root_system(label))
        for label in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2")
    ]
    fans += [subtorus_closure_fan(*_f4_wprime()), subtorus_closure_fan(*_e8_wprime())]
    fans += _rank_two_subdivisions(rng, fans)
    projective = [_projective_space_fan(n) for n in range(1, 6)]
    fans += projective + [fan(p.maximal_cones[1:]) for p in projective]
    assert len(fans) == 12 + 5 * 3 + 10
    verdicts = {True: 0, False: 0}
    for f in fans:
        cones = f.maximal_cones
        for k in range(min(3, len(cones))):
            # a subset of a valid fan's maximal cones is a valid fan
            kept = sorted(rng.sample(range(len(cones)), len(cones) - k))
            g = Fan(f.ambient_dim, tuple(cones[i] for i in kept), f.lattice)
            verdict = is_complete(g)
            assert verdict == _old_is_complete(g)
            verdicts[verdict] += 1
    # the 32 fans built complete stay so; a missing cone never is
    assert verdicts == {True: 32, False: 74}


def test_star_subdivision():
    bl = star_subdivision(p2_fan(), [1, 1])
    assert len(bl.rays()) == 4
    assert all(is_smooth(c) for c in bl.maximal_cones)
    assert is_complete(bl)

    bl2 = star_subdivision(p1xp1_fan(), [1, 1])
    assert len(bl2.rays()) == 5
    assert all(is_smooth(c) for c in bl2.maximal_cones)

    unchanged = star_subdivision(p2_fan(), [1, 0])
    assert unchanged.maximal_cones == p2_fan().maximal_cones

    with pytest.raises(InvalidInput):
        star_subdivision(fan([quadrant()]), [-1, -1])


def _random_2d_fan(rng):
    """A random complete smooth 2D fan made by subdividing the plane."""
    f = p2_fan() if rng.random() < 0.5 else p1xp1_fan()
    for _ in range(rng.randint(0, 3)):
        c = rng.choice(f.maximal_cones)
        ray = [a + b for a, b in zip(c.gens[0], c.gens[1])]
        f = star_subdivision(f, ray)
    return f


def test_subdivision_preserves_support():
    rng = random.Random(13)
    for _ in range(20):
        f = _random_2d_fan(rng)
        c = rng.choice(f.maximal_cones)
        ray = [a + b for a, b in zip(c.gens[0], c.gens[1])]
        g = star_subdivision(f, ray)
        # sample directions on a fine grid and compare membership
        for num in range(-8, 9):
            for den in range(-8, 9):
                if num == 0 and den == 0:
                    continue
                point = (Q(num), Q(den))
                in_f = any(contains(cc, point) for cc in f.maximal_cones)
                in_g = any(contains(cc, point) for cc in g.maximal_cones)
                assert in_f == in_g


def test_covered_by_basics():
    assert covered_by(cone([[1, 0]]), [quadrant()])
    assert not covered_by(quadrant(), [cone([[1, 0]]), cone([[0, 1]])])
    halves = [cone([[1, 0], [1, 1]]), cone([[1, 1], [0, 1]])]
    assert covered_by(quadrant(), halves)
    assert covered_by(quadrant(), halves, shortcut=False)
    assert not covered_by(quadrant(), halves[:1], shortcut=False)
    assert covered_by(zero_cone(2), [quadrant()])
    assert not covered_by(zero_cone(2), [])


def test_covered_by_3d():
    oct3 = cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    pieces = [
        cone([[1, 1, 1], [0, 1, 0], [0, 0, 1]]),
        cone([[1, 0, 0], [1, 1, 1], [0, 0, 1]]),
        cone([[1, 0, 0], [0, 1, 0], [1, 1, 1]]),
    ]
    assert covered_by(oct3, pieces, shortcut=False)
    assert not covered_by(oct3, pieces[:2], shortcut=False)


def _grid_points(target, resolution=16):
    """Rational grid over the generator simplex of the target cone."""
    gens = target.gens
    k = len(gens)
    points = []

    def rec(i, remaining, acc):
        if i == k - 1:
            coeffs = acc + [Q(remaining, resolution)]
            point = tuple(
                sum((c * g[j] for c, g in zip(coeffs, gens)), Q(0))
                for j in range(target.ambient_dim)
            )
            points.append(point)
            return
        for t in range(remaining + 1):
            rec(i + 1, remaining - t, acc + [Q(t, resolution)])

    rec(0, resolution, [])
    return points


def test_covered_by_agrees_with_grid_sampling():
    # sampling can only report false coverage, never falsely refute it; the
    # exact method must refute every sampled counterexample
    rng = random.Random(97)
    instances = 0
    while instances < 200:
        d = rng.choice([2, 3])
        gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        if rank(qm([qv(g) for g in gens])) < d:
            continue
        try:
            target = cone(gens)
        except InvalidInput:
            continue
        cover = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, d)
            cgens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(size)]
            try:
                cover.append(cone(cgens))
            except InvalidInput:
                pass
        if not cover:
            continue
        instances += 1
        exact = covered_by(target, cover)
        sampled = all(
            any(contains(c, p) for c in cover) for p in _grid_points(target)
        )
        if exact:
            assert sampled
        if not sampled:
            assert not exact


def test_covered_by_known_answers():
    # star-subdivision pieces of a cone cover it by construction; dropping
    # any full-dimensional piece must flip the verdict
    rng = random.Random(41)
    for _ in range(30):
        d = rng.choice([2, 3])
        while True:
            gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if rank(qm([qv(g) for g in gens])) == d:
                break
        target = cone(gens)
        interior = [sum(g[j] for g in target.gens) for j in range(d)]
        pieces = []
        for facet in combinations(target.gens, d - 1):
            facet_cone = cone(list(facet) + [interior])
            pieces.append(facet_cone)
        assert covered_by(target, pieces, shortcut=False)
        for drop in range(len(pieces)):
            rest = pieces[:drop] + pieces[drop + 1:]
            assert not covered_by(target, rest, shortcut=False)


def test_fan_all_cones_and_rays():
    f = p2_fan()
    assert len(f.rays()) == 3
    assert len({g.gens for c in f.maximal_cones for g in faces(c)}) == 7  # zero cone, three rays, three sectors
