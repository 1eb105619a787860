"""Every cone question reads the cone's kept integer generator rows,
``RationalCone._ints``, against the questions as they were before, each
scaling the Fraction generators itself, kept as oracles in `old_questions`.

Answers and refusals are compared on seeded inputs: cones on the standard
lattice and on reference lattices, built by `cone` or directly with int,
Fraction, non-primitive, dependent and off-span generators, their faces,
chamber fans up to F4, the colored fans and their valuation cones, and
`covered_by` with its shortcut on and off.  Every cone each builder makes
keeps its generators exactly: Q(x, s) of each kept row is the generator.
"""

import random
from fractions import Fraction as Q
from itertools import combinations
from math import gcd

import old_questions as old
from test_colored_face_relation import _hand_fans, _outcome
from test_fan_certificate import _broken_sets, _complete_fans, _named
from test_integer_cones import _generators, _lattices

from weylfans import jsonio
from weylfans.casebook import _f4_wprime
from weylfans.linalg import _dual_rows, qm, qv
from weylfans.polyhedra import (
    RationalCone, _certified_complete, _cones, _face_compatible, _ray_keys, cone, covered_by, faces, is_smooth,
    star_subdivision, zero_cone,
)
from weylfans.rootsys import build_root_system
from weylfans.spherical import (
    ColoredCone, _colored_faces, _relint_meets_valuation, blowup_chain_fans, extends_to_morphism, valuation_cone,
    wonderful_colored_fan, z_colored_fan,
)
from weylfans.toric import subtorus_closure_fan, weyl_chamber_fan

CHAMBER_TYPES = ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4")


def _exact(c):
    """The cone, after checking its kept rows are its generators over one
    least positive denominator."""
    rows, s = c._ints
    assert type(s) is int and s > 0 and all(type(x) is int for row in rows for x in row)
    assert tuple(tuple(Q(x, s) for x in row) for row in rows) == c.gens
    assert gcd(s, *(x for row in rows for x in row)) == 1
    return c


def _same(new, oracle, seen, name):
    """Both outcomes of one question, compared, and tallied by answer."""
    got = _outcome(new)
    assert got == _outcome(oracle), name
    key = name, got[1] if isinstance(got[1], bool) else got[0]
    seen[key] = seen.get(key, 0) + 1


def _direct(rng, dim, lattice, count):
    """A cone built directly, its generators as given: plain ints where
    they are integers, or Fractions scaled by 2, 3 or 1/2, off primitive,
    and now and then zero, repeated, off the lattice's span or of another
    length (`_generators`)."""
    gens = []
    for g in _generators(rng, dim, lattice, count):
        g = qv(g)
        roll = rng.random()
        if roll < 0.3 and all(x.denominator == 1 for x in g):
            g = tuple(int(x) for x in g)
        elif roll < 0.6:
            g = tuple(x * rng.choice((2, 3, Q(1, 2))) for x in g)
        gens.append(g)
    return RationalCone(dim, tuple(gens), lattice)


def _built(rng, dim, lattice, count):
    """A cone `cone` builds from seeded generators, or None when it refuses."""
    got = _outcome(lambda: cone(_generators(rng, dim, lattice, count), lattice, dim))
    return got[1] if got[0] == "value" else None


def _ask_cones(c1, c2, vcone, rho, seen, rng):
    """Every one-cone and pair question on the two cones, new against old;
    `covered_by` on one seeded choice of target and cover."""
    for c in (c1, c2):
        _same(lambda: is_smooth(c), lambda: old.is_smooth(c), seen, "smooth")
        _same(lambda: _relint_meets_valuation(c, vcone), lambda: old.relint_meets_valuation(c, vcone), seen, "meets")
    top = ColoredCone(cone=c1, colors=frozenset(rho))
    _same(lambda: _colored_faces(top, vcone, rho), lambda: old.colored_faces(top, vcone, rho), seen, "faces")
    _, (key1, key2) = _ray_keys([c1.gens, c2.gens])
    _same(
        lambda: _face_compatible(c1, c2, key1, key2), lambda: old.face_compatible(c1, c2, key1, key2), seen,
        "compatible",
    )
    target, cover = rng.choice(((c1, [c2]), (c2, [c1, vcone]), (vcone, [c1, c2])))
    for shortcut in (True, False):
        _same(
            lambda: covered_by(target, cover, shortcut), lambda: old.covered_by(target, cover, shortcut), seen,
            "covered",
        )


def test_cone_questions_match_the_fraction_path():
    """Random cones in dimensions 1-4 on three lattices each, built by
    `cone` or directly, with their faces, a valuation cone (the negative
    orthant, or a random cone whose span rows send `_colored_faces` down
    its per-face path) and two colors."""
    rng = random.Random(3401)
    seen = {}
    for _ in range(60):
        dim = rng.randint(1, 4)
        for lattice in _lattices(rng, dim):
            k = dim if lattice is None else len(lattice)
            built = [c for c in (_built(rng, dim, lattice, rng.randint(0, k)) for _ in range(2)) if c is not None]
            cones = [_direct(rng, dim, lattice, rng.randint(0, k)) for _ in range(2)] + built
            if rng.random() < 0.5:
                vcone = valuation_cone(build_root_system(f"A{dim}"))
            else:
                vcone = _built(rng, dim, None, rng.randint(1, dim)) or zero_cone(dim)
            rho = {"a": qv([rng.randint(-2, 2) for _ in range(dim)])}
            if built and built[0].gens:
                rho["b"] = qv([sum(g[i] for g in built[0].gens) for i in range(dim)])
            for c1, c2 in combinations(cones, 2):
                _ask_cones(c1, c2, vcone, rho, seen, rng)
            for f in faces(built[0]) if built else ():
                _ask_cones(_exact(f), built[0], vcone, rho, seen, rng)
    for question in ("smooth", "meets", "compatible", "covered"):
        assert seen.get((question, True), 0) > 40 and seen.get((question, False), 0) > 40, (question, seen)
    assert seen["smooth", "raises"] > 20 and seen["covered", "raises"] > 20 and seen["faces", "raises"] > 10, seen


def _scaled(rng, cones):
    """The cones built directly, each ray scaled by one seeded factor
    wherever it appears: the same fan, on non-primitive generators."""
    scaled = {}
    for c in cones:
        for g in c.gens:
            if g not in scaled:
                f = rng.choice((1, 2, 3, Q(1, 2), Q(2, 3)))
                scaled[g] = tuple(x * f for x in g)
    return [RationalCone(c.ambient_dim, tuple(map(scaled.get, c.gens)), c.lattice) for c in cones]


def test_fan_certificate_and_face_tests_match_the_fraction_path():
    """The certificate on the complete and broken cone sets of
    `test_fan_certificate`, as built and rebuilt on scaled generators, and
    the face test on seeded pairs of their maximal cones."""
    rng = random.Random(3402)
    seen = {}
    for kind, cones in [*_complete_fans(rng), *_broken_sets(rng)]:
        for variant in (cones, _scaled(rng, cones)):
            maximal, keys, rays = _named(variant)
            _same(
                lambda: _certified_complete(maximal, keys, rays), lambda: old.certified_complete(maximal, keys, rays),
                seen, "certified",
            )
            pairs = list(combinations(range(len(maximal)), 2))
            for i, j in rng.sample(pairs, min(len(pairs), 12)):
                _same(
                    lambda: _face_compatible(maximal[i], maximal[j], keys[i], keys[j]),
                    lambda: old.face_compatible(maximal[i], maximal[j], keys[i], keys[j]),
                    seen, "compatible",
                )
    assert seen["certified", True] > 60 and seen["certified", False] > 60, seen
    assert seen["compatible", True] > 300 and seen["compatible", False] > 20, seen


def test_chamber_fans_match_the_fraction_path():
    """Chamber fans up to F4: smoothness of every chamber, and covers of
    the first chamber's faces by seeded halves of the chambers that share a
    ray with it (all the other chambers up to rank three)."""
    rng = random.Random(3403)
    seen, chambers = {}, 0
    for label in CHAMBER_TYPES:
        f = weyl_chamber_fan(build_root_system(label))
        chambers += len(f.maximal_cones)
        for c in f.maximal_cones:
            _same(lambda: is_smooth(_exact(c)), lambda: old.is_smooth(c), seen, "smooth")
        first, keys = f.maximal_cones[0], f._names[1]
        others = [c for c, key in zip(f.maximal_cones[1:], keys[1:]) if f.ambient_dim <= 3 or set(key) & set(keys[0])]
        targets = faces(first) if f.ambient_dim <= 3 else [g for g in faces(first) if 1 <= g.dim <= 2]
        for target in targets:
            for cover in (others, rng.sample(others, len(others) // 2)):
                for shortcut in (True, False):
                    _same(
                        lambda: covered_by(_exact(target), cover, shortcut),
                        lambda: old.covered_by(target, cover, shortcut), seen, "covered",
                    )
    assert seen["smooth", True] == chambers and ("smooth", False) not in seen and ("smooth", "raises") not in seen
    assert seen["covered", True] > 100 and seen["covered", False] > 20, seen


def _colored_fans():
    for n in range(2, 5):
        yield from blowup_chain_fans(n)
        yield z_colored_fan(n)
        yield wonderful_colored_fan(build_root_system(f"C{n}"))
    for label in ("A2", "B3", "G2"):
        yield wonderful_colored_fan(build_root_system(label))
    for _, f in _hand_fans():
        yield f


def test_colored_fans_match_the_fraction_path():
    """Library and hand-built colored fans: every cone's valuation meet and
    colored faces, the valuation cone covered by the fan with the shortcut
    on and off, and extensions between every pair of the library's fans of
    one rank, without and with a lattice map and a dominant color."""
    seen = {}
    fans = list(_colored_fans())
    for f in fans:
        vcone = _exact(f.valuation_cone)
        for cc in f.cones:
            c = _exact(cc.cone)
            _same(
                lambda: _relint_meets_valuation(c, vcone), lambda: old.relint_meets_valuation(c, vcone), seen, "meets"
            )
            _same(
                lambda: _colored_faces(cc, vcone, f.rho_table), lambda: old.colored_faces(cc, vcone, f.rho_table),
                seen, "faces",
            )
        for shortcut in (True, False):
            cones = [cc.cone for cc in f.cones]
            _same(
                lambda: covered_by(vcone, cones, shortcut), lambda: old.covered_by(vcone, cones, shortcut), seen,
                "covered",
            )
    for source in fans:
        for target in fans:
            maps = [None]
            if source.rank == target.rank:
                n = source.rank
                maps.append([[2 * int(i == j) - int(j == i + 1) for j in range(n)] for i in range(n)])
            for lattice_map in maps:
                for dominant in ((), ("D(w1)",)):
                    _same(
                        lambda: extends_to_morphism(source, target, lattice_map, dominant),
                        lambda: old.extends_to_morphism(source, target, lattice_map, dominant), seen, "extends",
                    )
    assert seen["meets", True] > 50 and seen["meets", False] >= 2, seen
    assert seen["covered", True] > 10 and seen["covered", False] > 4, seen
    assert seen["extends", True] > 50 and seen["extends", False] > 50 and seen["extends", "raises"] > 50, seen


def test_every_builder_keeps_its_generators_exactly():
    """`cone` on both kinds of lattice, `_cones` through the fan reader,
    star subdivisions and the subtorus fan, faces, the zero cone, chamber
    fans, valuation cones, the colored fans and the faces `_colored_faces`
    gives, and cones built directly on int, Fraction and non-primitive
    generators."""
    rng = random.Random(3404)
    cones = [
        cone([[1, 2], ["1/2", -1]]),
        cone([[1, 1, 0], [0, 2, 2]], lattice=[["1/2", "1/2", 0], [0, 1, 1]]),
        zero_cone(3),
        zero_cone(2, [[1, 1]]),
        RationalCone(2, ((1, 0), (0, 2))),
        RationalCone(2, ((Q(1, 2), 1), (3, Q(-2, 3)))),
        RationalCone(3, ((2, 4, 0),), qm([[1, 2, 0], [0, 0, 1]])),
    ]
    doc = {
        "ambient_dim": 3,
        "lattice": [["1/2", "0", "0"], ["0", "1", "1"]],
        "rays": [["1", "0", "0"], ["0", "1", "1"], ["-1", "0", "0"], ["0", "-1", "-1"]],
        "maximal_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
    }
    read = jsonio.fan_from_json(doc)
    cones += read.maximal_cones + star_subdivision(read, [1, 2, 2]).maximal_cones
    cones += subtorus_closure_fan(*_f4_wprime()).maximal_cones
    lattice = qm([[1, 0, 0], [0, Q(1, 3), Q(1, 3)]])
    cones += _cones(
        [qv([2, 0, 0]), qv([0, 1, 1]), qv([-1, 0, 0])], [[0, 1], [1, 2]], 3, lattice, _dual_rows(lattice, 3)
    )
    for label in ("A2", "B3", "G2", "F4"):
        rs = build_root_system(label)
        cones += weyl_chamber_fan(rs).maximal_cones
        cones.append(valuation_cone(rs))
    for f in _colored_fans():
        cones += [cc.cone for cc in f.cones]
        for cc in f.cones:
            outcome = _outcome(lambda: _colored_faces(cc, f.valuation_cone, f.rho_table))
            cones += [face.cone for _, face in outcome[1]] if outcome[0] == "value" else []
    for c in list(cones):
        cones += faces(c) if c.dim <= 4 else rng.sample(faces(c), 4)
    for c in cones:
        _exact(c)
    assert len(cones) > 2000
