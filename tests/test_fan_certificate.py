"""The linear-time certificate `fan` tries first, against the pairwise
validation it falls back to, kept here as the oracle: one separating
functional per pair of maximal cones.  The certificate may only accept, so
it must never accept a set of cones the oracle refuses, and it must accept
every complete fan the oracle accepts.  A route test counts eliminations to
show the fans the toric step builds never reach the pairwise loop."""

import random
from itertools import combinations, product

import test_lattice_readers
from test_polyhedra import _projective_space_fan, _random_2d_fan, _rank_two_subdivisions, p1xp1_fan, p2_fan

from weylfans import polyhedra
from weylfans.casebook import _e8_wprime, _f4_wprime
from weylfans.errors import InvalidInput
from weylfans.linalg import qm, qv
from weylfans.polyhedra import (
    RationalCone,
    _certified_complete,
    _face_compatible,
    cone,
    fan,
    is_complete,
    star_subdivision,
)
from weylfans.rootsys import build_root_system
from weylfans.toric import subtorus_closure_fan, weyl_chamber_fan

CHAMBER_TYPES = (*test_lattice_readers.CHAMBER_TYPES, "F4")


def _named(cones):
    """The maximal cones as `fan` keeps them, their keys and the ray list."""
    f = fan(cones, validate=False)
    rays, keys = f._names
    return f.maximal_cones, keys, rays


def _pairwise_valid(maximal, keys, pairs=None):
    """The pairwise validation: each pair of maximal cones (all of them
    unless given by position) meets in the face their shared generators
    span."""
    if pairs is None:
        pairs = combinations(range(len(maximal)), 2)
    return all(_face_compatible(maximal[i], maximal[j], keys[i], keys[j]) for i, j in pairs)


def _orbit_pairs(maximal, first):
    """For a fan a group permutes, the pairs with one cone stand for every
    pair: the element taking a cone C to that one maps (C, C') onto one of
    them, and a linear map keeps two cones meeting in a common face."""
    return [(first, j) for j in range(len(maximal)) if j != first]


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _by_angle(vectors):
    """Plane vectors in counterclockwise order from the positive x axis."""

    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    out = []
    for v in vectors:
        at = len(out)
        for i, u in enumerate(out):
            if half(v) < half(u) or (half(v) == half(u) and _cross(u, v) < 0):
                at = i
                break
        out.insert(at, v)
    return out


def _polygon(directions, step):
    """The cones joining each direction to the one `step` places on."""
    n = len(directions)
    return [cone([directions[j], directions[(j + step) % n]]) for j in range(n)]


def _winding_polygons(rng):
    """Cycles of plane cones that wind two or three times around the origin:
    two fixed ones, and seeded ones on random directions whose joins all turn
    counterclockwise by less than a half turn."""
    yield "winding-2", _polygon([(1, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)], 2)
    yield "winding-3", _polygon([(1, 0), (4, 5), (-1, 4), (-9, 4), (-9, -4), (-1, -4), (4, -5)], 3)
    found = 0
    while found < 30:
        step = rng.choice((2, 3))
        n = rng.randint(2 * step + 1, 2 * step + 5)
        directions = {tuple(v) for v in ([rng.randint(-6, 6), rng.randint(-6, 6)] for _ in range(n))}
        directions = _by_angle([v for v in directions if any(v)])
        if len(directions) < 2 * step + 1:
            continue
        k = len(directions)
        if all(_cross(directions[j], directions[(j + step) % k]) > 0 for j in range(k)):
            found += 1
            yield f"winding-{step}-seeded", _polygon(directions, step)


def _complete_fans(rng):
    """Complete fans the toric step builds or the tests use: chamber fans,
    the two subtorus fans, projective spaces, star subdivisions of all of
    them in ranks two and three, and the orthant fan of rank three."""
    for label in CHAMBER_TYPES:
        yield f"chamber-{label}", list(weyl_chamber_fan(build_root_system(label)).maximal_cones)
    subtorus = [subtorus_closure_fan(*_f4_wprime()), subtorus_closure_fan(*_e8_wprime())]
    yield "subtorus-F4", list(subtorus[0].maximal_cones)
    yield "subtorus-E8", list(subtorus[1].maximal_cones)
    for n in range(1, 7):
        yield f"P{n}", list(_projective_space_fan(n).maximal_cones)
    rank_two = [weyl_chamber_fan(build_root_system(label)) for label in ("A2", "B2", "G2")] + subtorus
    for f in _rank_two_subdivisions(rng, rank_two):
        yield "subdivided-rank-2", list(f.maximal_cones)
    for _ in range(20):
        yield "subdivided-random-2d", list(_random_2d_fan(rng).maximal_cones)
    octants = [cone([[s1, 0, 0], [0, s2, 0], [0, 0, s3]]) for s1, s2, s3 in product((1, -1), repeat=3)]
    yield "orthants-3", octants
    for base in (_projective_space_fan(3), fan(octants), weyl_chamber_fan(build_root_system("A3"))):
        f = base
        for _ in range(3):
            c = rng.choice(f.maximal_cones)
            weights = [rng.randint(0, 2) for _ in c.gens]
            if not any(weights):
                weights[0] = 1
            f = star_subdivision(f, [sum(w * g[i] for w, g in zip(weights, c.gens)) for i in range(f.ambient_dim)])
            yield "subdivided-rank-3", list(f.maximal_cones)


def _perturbed(rng, cones):
    """A ray moved by a seeded integer offset, in every cone that holds it (a
    pseudomanifold still, folded when the offset is large), or in one cone
    only; None when a moved cone would not be simplicial."""
    rays = sorted({g for c in cones for g in c.gens})
    ray = rng.choice(rays)
    moved = tuple(x + rng.randint(-3, 3) for x in ray)
    if not any(moved):
        return None
    only = rng.choice(cones) if rng.random() < 0.3 else None
    try:
        return [
            cone([moved if g == ray else g for g in c.gens], lattice=c.lattice, ambient_dim=c.ambient_dim)
            if ray in c.gens and (only is None or c is only) else c
            for c in cones
        ]
    except InvalidInput:
        return None


def _broken_sets(rng):
    """Sets of cones that are not complete fans, most not fans at all."""
    small = [p2_fan(), p1xp1_fan(), _projective_space_fan(3)] + [
        weyl_chamber_fan(build_root_system(label)) for label in ("A2", "B2", "G2", "A3", "B3")
    ]
    for f in small:
        cones = list(f.maximal_cones)
        # dropped cones: valid fans that are not complete
        yield "dropped", cones[1:]
        yield "dropped", cones[::2]
        for _ in range(6):
            moved = _perturbed(rng, cones)
            if moved is not None:
                yield "perturbed", moved
        for c in rng.sample(cones, min(3, len(cones))):
            yield "plus-negation", cones + [cone([[-x for x in g] for g in c.gens], lattice=c.lattice)]
    yield from _winding_polygons(rng)
    # the octant below the wall (e1, e2) split in two along e1 + e2: that
    # wall of the octant above is covered by two cones, and meets neither in
    # a face
    octants = [cone([[s1, 0, 0], [0, s2, 0], [0, 0, s3]]) for s1, s2, s3 in product((1, -1), repeat=3)]
    below = [c for c in octants if c.gens != cone([[1, 0, 0], [0, 1, 0], [0, 0, -1]]).gens]
    yield "split-facet", below + [cone([[1, 0, 0], [1, 1, 0], [0, 0, -1]]), cone([[1, 1, 0], [0, 1, 0], [0, 0, -1]])]
    square = [cone([[1, 0], [0, 1]]), cone([[0, 1], [-1, 0]]), cone([[-1, 0], [0, -1]])]
    yield "split-facet", square + [cone([[0, -1], [1, -1]]), cone([[1, -1], [1, 0]]), cone([[2, -1], [1, 0]])]
    # complete fans in two planes, built directly in a lattice of rank two
    # that holds only the first: each is a pseudomanifold with its cones on
    # both sides of every wall, and the planes meet in a line that is no face
    plane = qm([[1, 0, 0], [0, 1, 0]])
    quadrants = [((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (-1, 0, 0)), ((-1, 0, 0), (0, -1, 0)), ((0, -1, 0), (1, 0, 0))]
    tilted = [((1, 1, 1), (1, -1, 0)), ((1, -1, 0), (-1, -1, -1)), ((-1, -1, -1), (-1, 1, 0)), ((-1, 1, 0), (1, 1, 1))]
    yield "two-planes", [RationalCone(3, tuple(sorted(map(qv, gens))), plane) for gens in quadrants + tilted]
    yield "one-ray", [cone([[1]])]
    yield "zero-cone", [polyhedra.zero_cone(2)]


# seeded outcomes per kind of input: certified, valid by the oracle only
# (not complete), or refused by the oracle
EXPECTED = {
    **{f"chamber-{label}": {"certified": 1} for label in CHAMBER_TYPES},
    "subtorus-F4": {"certified": 1},
    "subtorus-E8": {"certified": 1},
    **{f"P{n}": {"certified": 1} for n in range(1, 7)},
    "subdivided-rank-2": {"certified": 15},
    "subdivided-random-2d": {"certified": 20},
    "orthants-3": {"certified": 1},
    "subdivided-rank-3": {"certified": 9},
    "dropped": {"valid": 16},
    "perturbed": {"certified": 20, "valid": 2, "refused": 10},
    "plus-negation": {"certified": 18, "refused": 6},
    "winding-2": {"refused": 20},
    "winding-3": {"refused": 12},
    "split-facet": {"refused": 2},
    "two-planes": {"refused": 1},
    "one-ray": {"valid": 1},
    "zero-cone": {"valid": 1},
}


def test_certificate_never_accepts_what_the_pairwise_oracle_refuses():
    """The certificate accepts exactly the sets the oracle accepts that are
    complete (by wall counts on the unvalidated fan), on 173 seeded sets."""
    rng = random.Random(1852)
    tally = {}
    for kind, cones in [*_complete_fans(rng), *_broken_sets(rng)]:
        maximal, keys, rays = _named(cones)
        certified = _certified_complete(maximal, keys, rays)
        pairs = None
        if kind == "chamber-F4":
            # every pair of the 1,152 chambers is a Weyl translate of a pair
            # with the first one
            pairs = _orbit_pairs(maximal, 0)
        valid = _pairwise_valid(maximal, keys, pairs)
        assert valid or not certified, kind
        assert certified == (valid and is_complete(fan(cones, validate=False))), kind
        outcome = "certified" if certified else "valid" if valid else "refused"
        counts = tally.setdefault(kind.removesuffix("-seeded"), {})
        counts[outcome] = counts.get(outcome, 0) + 1
    assert tally == EXPECTED


def test_toric_fans_never_reach_the_pairwise_loop(monkeypatch):
    """No elimination while building the chamber fans, the two subtorus
    fans and every seeded rank-two star subdivision."""
    calls = []
    real = polyhedra._eliminate
    monkeypatch.setattr(polyhedra, "_eliminate", lambda *args: calls.append(args) or real(*args))
    chamber = {label: weyl_chamber_fan(build_root_system(label)) for label in CHAMBER_TYPES}
    subtorus = [subtorus_closure_fan(*_f4_wprime()), subtorus_closure_fan(*_e8_wprime())]
    rank_two = [f for f in (*chamber.values(), *subtorus) if f.maximal_cones[0].lattice_rank() == 2]
    subdivided = _rank_two_subdivisions(random.Random(2007), rank_two)
    rng = random.Random(13)
    for _ in range(20):
        f = _random_2d_fan(rng)
        c = rng.choice(f.maximal_cones)
        subdivided.append(star_subdivision(f, [a + b for a, b in zip(*c.gens)]))
    assert calls == []
    assert len(chamber["F4"].maximal_cones) == 1152 and len(subdivided) == 15 + 20
    assert all(is_complete(f) for f in subdivided)

