"""Each fan names its rays once, where it is built, and every reader reads
those names.  The readers as they were before, each calling `_ray_keys`
itself, and the colored-fan JSON sorting its cones by Fraction generator
tuples, are kept here as the oracle; rays, keys, completeness, both JSON
encodings (as bytes), extensions and orbit posets must match it on seeded
library fans, star subdivisions, fan document round trips and fans built
directly, including cone lists of mixed ambient dimension and reversed.
The one difference allowed is a ray without a boundary name: the old
lookup raised a bare KeyError, and the encoder and the anticanonical
divisor now refuse it with InvalidInput naming the ray."""

import json
import random

from test_colored_face_relation import _hand_fans, _outcome
from test_extreme_ray_faces import _mixed_fan

from weylfans import jsonio, spherical
from weylfans.errors import InvalidInput
from weylfans.linalg import _common_ints, _int_mat_vec, qm
from weylfans.polyhedra import (
    Fan, RationalCone, _holds, _point_ints, _ray_keys, _text, _walls, contains, is_complete, star_subdivision,
)
from weylfans.rootsys import build_root_system
from weylfans.spherical import ColoredFan, OrbitPoset, _relint_meets_valuation
from weylfans.toric import weyl_chamber_fan

CHAMBER_TYPES = ("A2", "B2", "G2", "A3", "B3")
WONDERFUL_TYPES = ("A2", "B2", "G2", "C3", "A3")

# --- the readers before, kept as the oracle ------------------------------------


def _old_rays(f):
    return tuple(sorted({g for c in f.maximal_cones for g in c.gens}))


def _old_is_complete(f):
    return _walls(f.maximal_cones, _ray_keys([c.gens for c in f.maximal_cones])[1]) is not None


def _old_fan_to_json(f):
    rays, keys = _ray_keys([c.gens for c in f.maximal_cones])
    return {
        "ambient_dim": f.ambient_dim,
        "lattice": "standard" if f.lattice is None else jsonio.encode_matrix(f.lattice),
        "rays": [jsonio.encode_vector(r) for r in rays],
        "maximal_cones": sorted(sorted(key) for key in keys),
    }


def _old_boundary_divisors(f):
    out = []
    for cc in f.cones:
        if cc.cone.dim == 1:
            ray = cc.cone.gens[0]
            out.append((f.boundary_names[ray], ray))
    return tuple(sorted(set(out)))


def _old_colored_fan_to_json(f):
    cones = sorted(f.cones, key=lambda cc: (cc.cone.gens, sorted(cc.colors)))
    rays, keys = _ray_keys([cc.cone.gens for cc in cones])
    return {
        "rank": f.rank,
        "rays": [jsonio.encode_vector(r) for r in rays],
        "cones": [{"rays": sorted(key), "colors": sorted(cc.colors)} for cc, key in zip(cones, keys)],
        "valuation_cone": jsonio.encode_matrix(f.valuation_cone.gens),
        "rho_table": {k: jsonio.encode_vector(v) for k, v in sorted(f.rho_table.items())},
        "boundary_divisors": [
            {"name": name, "ray": jsonio.encode_vector(ray)} for name, ray in _old_boundary_divisors(f)
        ],
    }


def _old_extends_to_morphism(source, target, lattice_map=None, dominant_colors=()):
    dominant = frozenset(dominant_colors)
    if lattice_map is not None:
        if len(lattice_map) != target.rank or any(len(row) != source.rank for row in lattice_map):
            raise InvalidInput(f"lattice map must be {target.rank} rows of length {source.rank}")
    rays, keys = _ray_keys([cc.cone.gens for cc in source.cones])
    image_dims = {len(r) if lattice_map is None else len(lattice_map) for r in rays}
    if image_dims and len(image_dims | {tc.cone.ambient_dim for tc in target.cones}) > 1:
        raise InvalidInput("dimension mismatch in cone membership")
    if lattice_map is None:
        points = [_point_ints(r) for r in rays]
    else:
        rows, _ = _common_ints(qm(lattice_map))
        points = [_int_mat_vec(rows, 1, r)[0] for r in rays]
    mapped = []
    for n in sorted(range(len(keys)), key=lambda n: -len(keys[n])):
        ids, colors = frozenset(keys[n]), source.cones[n].colors
        if any(ids <= m_ids and colors <= m_colors for m_ids, m_colors in mapped):
            continue
        if not any(
            all(d in dominant or d in tc.colors for d in colors) and all(_holds(tc.cone, points[r]) for r in ids)
            for tc in target.cones
        ):
            return False
        mapped.append((ids, colors))
    return True


def _old_orbit_poset(f):
    nodes, rho = f.cones, f.rho_table
    _, keys = _ray_keys([cc.cone.gens for cc in nodes])
    gens = [frozenset(key) for key in keys]
    meets = [_relint_meets_valuation(cc.cone, f.valuation_cone) for cc in nodes]
    le = tuple(
        tuple(
            gens[i] <= gens[j]
            and meets[i]
            and a.colors == frozenset(d for d in b.colors if contains(a.cone, rho[d]))
            for j, b in enumerate(nodes)
        )
        for i, a in enumerate(nodes)
    )
    return OrbitPoset(nodes=nodes, less_equal=le)


# --- inputs --------------------------------------------------------------------


def _fans(rng):
    """Chamber fans, two seeded star subdivisions of each, every one of them
    through a fan document and back, and fans built directly from a seeded
    subset of each chamber fan's cones, once in order and once reversed,
    with each cone's generators reversed too."""
    chambers = [weyl_chamber_fan(build_root_system(label)) for label in CHAMBER_TYPES]
    subdivided = []
    for f in chambers:
        for _ in range(2):
            gens = rng.choice(f.maximal_cones).gens
            weights = [rng.randint(1, 3) for _ in gens]
            subdivided.append(star_subdivision(f, [sum(w * g[i] for w, g in zip(weights, gens)) for i in range(f.ambient_dim)]))
    built = chambers + subdivided
    round_trips = [jsonio.fan_from_json(json.loads(jsonio.dumps(jsonio.fan_to_json(f)))) for f in built]
    direct = []
    for f in chambers:
        cones = [f.maximal_cones[i] for i in sorted(rng.sample(range(len(f.maximal_cones)), len(f.maximal_cones) // 2))]
        flipped = [RationalCone(c.ambient_dim, c.gens[::-1], c.lattice) for c in cones[::-1]]
        direct += [Fan(f.ambient_dim, tuple(cones), f.lattice), Fan(f.ambient_dim, tuple(flipped), f.lattice)]
    return built + round_trips + direct


def _colored_fans():
    """Library colored fans, hand-built ones, and the mixed-dimension fan of
    `test_extreme_ray_faces` with its cone list reversed."""
    fans = [f for n in range(2, 7) for f in spherical.blowup_chain_fans(n)]
    fans += [spherical.z_colored_fan(n) for n in range(2, 6)]
    fans += [spherical.wonderful_colored_fan(build_root_system(label)) for label in WONDERFUL_TYPES]
    fans += [f for _, f in _hand_fans()]
    x, mixed = _mixed_fan()
    reordered = ColoredFan(x.rank, mixed.cones[::-1], x.valuation_cone, x.rho_table, x.colors, x.boundary_names)
    return fans + [mixed, reordered]


def _bytes(encode, f):
    return _outcome(lambda: jsonio.dumps(encode(f)).encode())


# --- the comparisons -----------------------------------------------------------


def test_fans_keep_the_names_each_reader_found():
    fans = _fans(random.Random(7))
    assert len(fans) == 2 * (5 + 10) + 10
    complete = 0
    for f in fans:
        assert f._names == _ray_keys([c.gens for c in f.maximal_cones])
        assert f.rays() == _old_rays(f)
        assert is_complete(f) == _old_is_complete(f)
        complete += is_complete(f)
        got = _bytes(jsonio.fan_to_json, f)
        assert got == _bytes(_old_fan_to_json, f) and got[0] == "value"
    # the built fans and their round trips are complete, the halves are not
    assert complete == 30


def test_colored_fans_keep_the_names_each_reader_found():
    fans = _colored_fans()
    encoded = {"value": 0, "raises": 0}
    for f in fans:
        assert f._names == _ray_keys([cc.cone.gens for cc in f.cones])
        got, old = _bytes(jsonio.colored_fan_to_json, f), _bytes(_old_colored_fan_to_json, f)
        if old[0] == "raises":
            # the old lookup's bare KeyError is now a refusal naming the ray
            assert old[1] is KeyError
            refusal = ("raises", InvalidInput, (f"ray {_text(old[2][0])} has no boundary divisor name",))
            assert got == refusal
            assert _outcome(lambda: spherical.anticanonical_divisor(f, dict.fromkeys(f.colors, 2))) == refusal
        else:
            assert got == old
        encoded[got[0]] += 1
        if max(len(cc.cone.gens) for cc in f.cones) <= 4:
            assert _outcome(lambda: spherical.orbit_poset(f)) == _outcome(lambda: _old_orbit_poset(f))
    # a ray without a boundary name is refused: three hand-built fans, which
    # have none, and the two mixed ones, whose C2 ray the C3 names miss
    assert encoded == {"value": len(fans) - 5, "raises": 5}


def test_extensions_read_the_kept_names():
    rng = random.Random(7)
    fans = _colored_fans()
    pairs = [(a, b) for n in range(2, 6) for a, b in zip(spherical.blowup_chain_fans(n), spherical.blowup_chain_fans(n)[1:])]
    pairs += [(b, a) for a, b in pairs] + [(fans[-3], fans[-1]), (fans[-1], fans[-2]), (fans[-2], fans[-3])]
    pairs += [tuple(rng.sample(fans, 2)) for _ in range(40)]
    seen = {True: 0, False: 0, "raises": 0}
    for source, target in pairs:
        maps = [None]
        if source.rank == target.rank:
            maps.append([[rng.randint(-1, 2) for _ in range(source.rank)] for _ in range(target.rank)])
        for lattice_map in maps:
            for dominant in ((), ("D(w1)",), tuple(source.colors)):
                got = _outcome(lambda: spherical.extends_to_morphism(source, target, lattice_map, dominant))
                assert got == _outcome(lambda: _old_extends_to_morphism(source, target, lattice_map, dominant))
                seen[got[1] if got[0] == "value" else "raises"] += 1
    assert min(seen.values()) > 10, seen
