"""The cones of one ray list, built by one call to `_cones`, against the loop
of one `cone` per index list that the fan JSON reader, the subtorus fans and
`star_subdivision` ran before (`old_cones`); and the chamber fans read back
from their documents, with every cone holding the fan's own ray objects."""

import json
import random
from fractions import Fraction as Q

import old_cones
import pytest
from test_chamber_walk import SMALL

from weylfans import jsonio
from weylfans.errors import InvalidInput
from weylfans.linalg import _dual_rows, qm, qv, rank, saturation_basis
from weylfans.polyhedra import _cones, fan
from weylfans.rootsys import build_root_system, weyl_order
from weylfans.toric import weyl_chamber_fan


def _outcome(compute):
    try:
        return compute()
    except InvalidInput as exc:
        return ("refused", str(exc))


def _lattice(rng, dim):
    """None, a scaled lattice of full rank or a saturated plane (a line in
    one dimension), each a third of the time."""
    kind = rng.randrange(3)
    if kind == 0:
        return None
    if kind == 1:
        return qm([[Q(rng.choice((1, 2, 3)), rng.choice((1, 2))) * (i == j) for j in range(dim)] for i in range(dim)])
    while True:
        plane = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(min(dim, 2))]
        if rank(plane) == len(plane):
            return saturation_basis(plane)


def _document(rng):
    """(dim, lattice, rays, index lists): rays are rational combinations of
    the lattice rows, with zero rays, equal rays at two indices, scaled
    copies, rays moved off the lattice's span and rays of another length;
    each index list draws from them with repeats, so a bad ray may sit in
    several cones, in one, or in none."""
    dim = rng.randint(1, 4)
    lattice = _lattice(rng, dim)
    basis = lattice if lattice is not None else qm([[int(i == j) for j in range(dim)] for i in range(dim)])
    rays = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if rays and roll < 0.15:
            rays.append(rng.choice(rays))
        elif rays and roll < 0.25:
            rays.append(qv(Q(rng.randint(1, 3), rng.randint(1, 2)) * x for x in rng.choice(rays)))
        elif roll < 0.33:
            rays.append(qv([0] * dim))
        elif roll < 0.41:
            lam = [rng.randint(-2, 2) for _ in basis]
            rays.append(qv(sum(a * b[j] for a, b in zip(lam, basis)) + rng.randint(-1, 1) for j in range(dim)))
        elif roll < 0.47:
            rays.append(qv([rng.randint(-2, 2) for _ in range(dim + rng.choice((-1, 1)))]))
        else:
            lam = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in basis]
            rays.append(qv(sum(a * b[j] for a, b in zip(lam, basis)) for j in range(dim)))
    size = len(basis)
    keys = [[rng.randrange(len(rays)) for _ in range(rng.randint(0, size + 1))] for _ in range(rng.randint(1, 5))]
    return dim, lattice, rays, keys


def _values(cones):
    return [(c, c.gens, c._dual, c._lat, c.lattice) for c in cones]


def test_cones_match_the_loop_over_cone(monkeypatch):
    """Equal cones (value, dual basis, lattice rows), an equal fan with equal
    names, or the same refusal, from the builder, from `fan` on its cones
    and from the JSON reader, on the standard lattice and on reference
    lattices with their rows handed over or not."""
    rng = random.Random(3301)
    kinds = ("built", "fans", "dependent", "off", "mixed", "repeated", "zero", "unused bad", "two errors")
    seen = dict.fromkeys(kinds, 0)
    for _ in range(700):
        dim, lattice, rays, keys = _document(rng)
        for lat in (None,) if lattice is None else (None, _dual_rows(lattice, dim)):
            old = _outcome(lambda: old_cones.cones(rays, keys, dim, lattice, lat))
            new = _outcome(lambda: _cones(rays, keys, dim, lattice, lat))
            if isinstance(old, tuple):
                assert new == old
                continue
            assert _values(new) == _values(old)
            old_fan, new_fan = _outcome(lambda: fan(old)), _outcome(lambda: fan(new))
            assert new_fan == old_fan
            if not isinstance(old_fan, tuple):
                assert new_fan._names == old_fan._names
                assert _values(new_fan.maximal_cones) == _values(old_fan.maximal_cones)
                seen["fans"] += 1
        doc = {
            "ambient_dim": dim,
            "lattice": "standard" if lattice is None else jsonio.encode_matrix(lattice),
            "rays": [jsonio.encode_vector(r) for r in rays],
            "maximal_cones": keys,
        }
        new = _outcome(lambda: jsonio.fan_from_json(doc))
        with monkeypatch.context() as m:
            m.setattr(jsonio, "_cones", old_cones.cones)
            old = _outcome(lambda: jsonio.fan_from_json(doc))
        assert new == old
        if not isinstance(old, tuple):
            assert new._names == old._names and _values(new.maximal_cones) == _values(old.maximal_cones)

        # what the document held, and how each cone alone fares
        alone = [_outcome(lambda: old_cones.cone([rays[i] for i in ids], lattice, dim)) for ids in keys]
        errors = [c[1] for c in alone if isinstance(c, tuple)]
        used = {i for ids in keys for i in ids}
        seen["built"] += not errors
        seen["dependent"] += any(e.startswith("cone generators must be linearly independent") for e in errors)
        seen["off"] += any(e.endswith("outside the span of the reference lattice") for e in errors)
        seen["mixed"] += "cone generators of mixed dimension" in errors
        seen["two errors"] += len(errors) >= 2
        seen["repeated"] += any(rays[i] == rays[j] for i in used for j in used if i < j and any(rays[i]))
        seen["zero"] += any(not any(rays[i]) for i in used)
        unused = [_outcome(lambda: old_cones.cone([r], lattice, dim)) for i, r in enumerate(rays) if i not in used]
        seen["unused bad"] += not errors and any(isinstance(c, tuple) for c in unused)
    assert min(seen.values()) >= 20, seen


# every chamber fan up to F4's 1,152 chambers
FAN_TYPES = [t for t in SMALL if weyl_order(build_root_system(t)) <= 1152]


@pytest.mark.parametrize("label", FAN_TYPES)
def test_chamber_fans_read_back_sharing_their_rays(label):
    """A chamber fan reads back from its document as the same fan, with the
    same names and the same bytes emitted again, and each cone's generators
    are the fan's ray objects."""
    f = weyl_chamber_fan(build_root_system(label))
    text = jsonio.dumps(jsonio.fan_to_json(f))
    g = jsonio.fan_from_json(json.loads(text))
    assert g == f and g._names == f._names
    assert jsonio.dumps(jsonio.fan_to_json(g)) == text
    rays, keys = g._names
    assert all(x is rays[k] for c, key in zip(g.maximal_cones, keys) for x, k in zip(c.gens, key))

