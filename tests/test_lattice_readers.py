"""The reference-lattice readers, one solve per call, against the path they
replaced: `coords_in_basis` on a process-wide cache of dual rows, and a
`_primitivize` that solved once per generator (both kept in old_linalg).
Seeded rational lattices of every shape with vectors on and off their span,
the chamber and subtorus fans, and chamber cones built directly against
cones built by `cone`."""

import random
from fractions import Fraction as Q
from math import lcm

import pytest
from old_linalg import _dual_rows, _old_primitivize, coords_in_basis, mat_vec, minors_gcd, transpose
from test_linalg import _old_coords_in_basis

from weylfans import toric
from weylfans.casebook import _e8_wprime, _f4_wprime
from weylfans.errors import InvalidInput
from weylfans.linalg import _common_ints, qm, qv, rank, saturation_basis
from weylfans.polyhedra import RationalCone, _lattice_ints, _primitivize, cone, fan, is_smooth
from weylfans.rootsys import WeylElement, build_root_system, sign_flip, simple_reflection, weyl_enumerate

_OFF_SPAN = "vector lies outside the span of the reference lattice"

# --- the path before, kept as the oracle -------------------------------------


def _old_cone(gens, lattice, dim):
    prim = tuple(sorted({_old_primitivize(qv(g), lattice) for g in gens if any(g)}))
    if prim:
        try:
            _dual_rows(prim)
        except InvalidInput:
            raise InvalidInput("cone generators must be linearly independent (simplicial cones only)") from None
    return RationalCone(dim, prim, lattice)


def _old_lattice_coords(c, v):
    if c.lattice is None:
        return qv(v)
    coords = coords_in_basis(c.lattice, qv(v))
    if coords is None:
        raise InvalidInput(_OFF_SPAN)
    return coords


def _old_is_smooth(c):
    if not c.gens:
        return True
    rows, s = _common_ints([_old_lattice_coords(c, g) for g in c.gens])
    return s == 1 and minors_gcd(rows, len(c.gens)) == 1


def _old_ray_orbit_partition(s, group):
    rays = list(s.fan.rays())
    images = {r: [] for r in rays}
    for r in rays:
        for w in group:
            img = _old_primitivize(w.apply(r), s.fan.lattice)
            if img not in rays:
                raise InvalidInput(f"group element moves ray {r} off the ray set")
            images[r].append(img)
    sizes, remaining = [], set(rays)
    while remaining:
        orbit, frontier = set(), [remaining.pop()]
        while frontier:
            x = frontier.pop()
            orbit.add(x)
            for img in images[x]:
                if img in remaining:
                    remaining.remove(img)
                    frontier.append(img)
        sizes.append(len(orbit))
    return tuple(sorted(sizes))


def _outcome(compute):
    """The value, or the refusal's message."""
    try:
        return compute()
    except InvalidInput as exc:
        return ("refused", str(exc))


# --- seeded lattices ----------------------------------------------------------


def _lattice(rng, kind, dim, k):
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        if rank(qm(rows)) == k:
            break
    if kind == "saturation":
        return saturation_basis(qm(rows))
    if kind == "scaled":
        return qm([[x * Q(rng.randint(1, 6), rng.randint(1, 4)) for x in row] for row in rows])
    return qm([[Q(x, rng.randint(1, 5)) for x in row] for row in rows])


def _vectors(rng, lattice, dim, off_span):
    """Rational combinations of the lattice rows, moved off their span when
    asked (and the lattice is short of full rank)."""
    out = []
    for _ in range(rng.randint(1, 4)):
        lam = [Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in lattice]
        v = mat_vec(transpose(lattice), lam)
        if off_span:
            v = tuple(x + rng.randint(-2, 2) for x in v)
        out.append(v)
    return out


def test_readers_match_cached_coordinate_path():
    rng = random.Random(2010)
    seen = {"saturation": 0, "scaled": 0, "rational": 0, "low_rank": 0, "on": 0, "off": 0, "smooth": 0}
    for _ in range(240):
        kind = rng.choice(("saturation", "scaled", "rational"))
        dim = rng.randint(1, 5)
        k = rng.randint(1, dim)
        lattice = _lattice(rng, kind, dim, k)
        seen[kind] += 1
        seen["low_rank"] += k < dim
        probe = RationalCone(dim, (), lattice)
        for off_span in (False, True):
            vectors = _vectors(rng, lattice, dim, off_span)
            # one vector at a time: coordinates, against both oracles
            for v in vectors:
                new = _outcome(lambda: probe.lattice_coords(v))
                assert new == _outcome(lambda: _old_lattice_coords(probe, v))
                assert (None if new[0] == "refused" else new) == _old_coords_in_basis(lattice, v)
                seen["off" if new[0] == "refused" else "on"] += 1
            # all at once: integer rows over the least common denominator
            batch = _outcome(lambda: _lattice_ints(lattice, vectors))
            old = [coords_in_basis(lattice, v) for v in vectors]
            if None in old:
                assert batch == ("refused", _OFF_SPAN)
            else:
                rows, d = batch
                assert [tuple(Q(x, d) for x in row) for row in rows] == old
                assert d == lcm(*(x.denominator for row in old for x in row))
            # primitive generators and the cone they span
            nonzero = [v for v in vectors if any(v)]
            assert _outcome(lambda: _primitivize(nonzero, lattice)) == _outcome(
                lambda: [_old_primitivize(v, lattice) for v in nonzero]
            )
            gens = nonzero[: rng.randint(1, k)]
            c = _outcome(lambda: cone(gens, lattice=lattice, ambient_dim=dim))
            assert c == _outcome(lambda: _old_cone(gens, lattice, dim))
            if isinstance(c, RationalCone):
                assert is_smooth(c) == _old_is_smooth(c)
                seen["smooth"] += is_smooth(c)
        # the zero vector, and a vector of another length
        assert _outcome(lambda: _primitivize([qv([0] * dim)], lattice)) == ("refused", "zero vector has no direction")
        assert _outcome(lambda: probe.lattice_coords([1] * (dim + 1))) == ("refused", _OFF_SPAN)
    assert min(seen.values()) > 20, seen


# --- chamber and subtorus fans ------------------------------------------------

CHAMBER_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2")


@pytest.mark.parametrize("label", [*CHAMBER_TYPES, "F4"])
def test_chamber_cones_built_directly_match_cone(label):
    """Translates of the coweight basis taken as primitive generators, as
    `weyl_chamber_fan` builds them, against `cone` and the per-generator
    path.  Each fan, F4's 1,152 chambers included, is validated as
    `weyl_chamber_fan` builds it."""
    rs = build_root_system(label)
    lattice = qm(rs.fundamental_coweights)
    group = weyl_enumerate(rs)
    built = [cone([w.apply(cw) for cw in lattice], lattice=lattice, ambient_dim=rs.ambient_dim) for w in group]
    old = [_old_cone([w.apply(cw) for cw in lattice], lattice, rs.ambient_dim) for w in group]
    assert built == old
    f = toric.weyl_chamber_fan(rs)
    assert f.maximal_cones == fan(built, validate=False).maximal_cones
    for c in f.maximal_cones[:24]:
        assert [c.lattice_coords(g) for g in c.gens] == [_old_lattice_coords(c, g) for g in c.gens]
        assert is_smooth(c) and _old_is_smooth(c)


def _surfaces():
    for label in ("A2", "B2", "G2"):
        rs = build_root_system(label)
        yield label, rs, toric.weyl_chamber_fan(rs), weyl_enumerate(rs)
    for label, wprime in (("F4", _f4_wprime), ("E8", _e8_wprime)):
        rs, group = wprime()
        yield label, rs, toric.subtorus_closure_fan(rs, group), group


def test_ray_orbit_partition_matches_per_image_path():
    """Answers and refusals: whole groups, parts of them, no element, and
    elements that move a ray off the plane or off the ray set."""
    refused = set()
    for label, rs, f, group in _surfaces():
        surface = toric.toric_surface(f)
        s1 = simple_reflection(rs, 1)
        off_plane = sign_flip(rs.ambient_dim, [0])
        # adds the first coordinate to the last: off the plane, or moving rays in it
        n = rs.ambient_dim
        shear = WeylElement(qm([[int(i == j or (i, j) == (n - 1, 0)) for j in range(n)] for i in range(n)]))
        for g in (group, group[:1], group[1:3], [], [s1], [*group, s1], [off_plane], [*group, shear]):
            got = _outcome(lambda: toric.ray_orbit_partition(surface, g))
            assert got == _outcome(lambda: _old_ray_orbit_partition(surface, g)), label
            if got[0] == "refused":
                refused.add(got[1].split(" (")[0])
        for c in f.maximal_cones:
            assert is_smooth(c) == _old_is_smooth(c)
            assert [c.lattice_coords(g) for g in c.gens] == [_old_lattice_coords(c, g) for g in c.gens]
    assert refused == {"generator", "group element moves ray"}
