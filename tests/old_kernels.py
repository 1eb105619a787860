"""The second copies of cone and Weyl-group kernels that the package folded
into one, kept as oracles.

The cone membership ``holds`` (the signs of a point's dot products with a
cone's dual rows) and the ``contains`` on it, the generator-coordinate
support ``coordinate_support`` beside it, and the ``star_subdivision``
that asked ``contains`` of every cone and then took a second dot-product
pass for the facets to join; the package reads one ``_support`` for all
of them.  The left-hand reflection update ``reflection_times`` (s_a w),
which built the longest element, and the ``simple_reflection`` that built
its rows by hand; the package right-multiplies with ``_times_reflection``
for both.  And ``validate_colored_cone``, which re-derived a colored top's
validity with one elimination and a ``contains`` per color and generator,
where the package reads it off the top's own colored faces.
"""

from itertools import compress
from math import gcd
from operator import mul

from weylfans.errors import InvalidInput
from weylfans.linalg import _common_ints, primitive_direction, qv
from weylfans.polyhedra import _point_ints, _primitivize, cone, fan
from weylfans.rootsys import WeylElement, _canonical
from weylfans.spherical import _relint_meets_valuation


def holds(c, w, strict=False):
    """Membership of a point given by integers up to a positive scale: the
    span rows vanish at it and the facet rows are nonnegative (positive when
    strict); the positive d and scale change no sign."""
    k = len(c.gens)
    dots = [sum(map(mul, row, w)) for row in c._dual[0]]
    if any(dots[k:]):
        return False
    return all(x > 0 for x in dots[:k]) if strict else all(x >= 0 for x in dots[:k])


def contains(c, v, strict=False):
    if len(v) != c.ambient_dim:
        raise InvalidInput("dimension mismatch in cone membership")
    return holds(c, _point_ints(v), strict)


def coordinate_support(c, v):
    """The bitmask of v's nonzero coordinates in the cone's generators, or
    None when v lies off the cone."""
    if len(v) != c.ambient_dim:
        raise InvalidInput("dimension mismatch in cone membership")
    w = _point_ints(v)
    dots = [sum(map(mul, row, w)) for row in c._dual[0]]
    if any(dots[c.dim :]) or any(x < 0 for x in dots[: c.dim]):
        return None
    return sum(1 << i for i, x in enumerate(dots[: c.dim]) if x)


def star_subdivision(f, ray):
    if len(ray) != f.ambient_dim:
        raise InvalidInput(f"subdivision ray has length {len(ray)}, not the fan's ambient dimension {f.ambient_dim}")
    lat = f.maximal_cones[0]._lat
    (ray_p,) = _primitivize([qv(ray)], f.lattice, lat)
    inside = [contains(c, ray_p) for c in f.maximal_cones]
    if not any(inside):
        raise InvalidInput("subdivision ray lies outside the support of the fan")
    new_cones = [c for c, held in zip(f.maximal_cones, inside) if not held]
    w = _point_ints(ray_p)
    for c in compress(f.maximal_cones, inside):
        for i, row in enumerate(c._dual[0][: c.dim]):
            if sum(map(mul, row, w)):
                facet = [*c.gens[:i], *c.gens[i + 1 :]]
                new_cones.append(cone([*facet, ray_p], lattice=c.lattice, ambient_dim=c.ambient_dim, _lat=lat))
    return fan(new_cones)


def reflection_times(a, p, q, w, word):
    """s_a w: s_a x is x - (p / q) a (a . x), so s_a w is q N - p a (a^T N)
    over q d, for w = N over d.  A row where a vanishes is kept as it is
    when q is 1."""
    u = [p * sum(map(mul, a, col)) for col in zip(*w._rows)]
    rows = []
    for x, row in zip(a, w._rows):
        rows.append(tuple([q * y - x * z for y, z in zip(row, u)]) if x or q > 1 else row)
    return _canonical(rows, q * w._den, word)


def simple_reflection(rs, i):
    """s_i as the integer rows n I - 2 a a^T over n, for the integer row a
    of alpha_i and n = a . a, reduced to canonical form."""
    if not 1 <= i <= rs.rank:
        raise InvalidInput(f"simple reflection index {i} out of range for {rs.label}")
    (a,), _ = _common_ints([rs.simple_roots[i - 1]])
    n = sum(x * x for x in a)
    rows = [[n * (r == c) - 2 * x * y for c, y in enumerate(a)] for r, x in enumerate(a)]
    g = gcd(n, *(x for row in rows for x in row))
    return WeylElement._from_ints(tuple(tuple(x // g for x in row) for row in rows), n // g, (i,))


def validate_colored_cone(cc, vcone, rho):
    for d in cc.colors:
        if d not in rho:
            raise InvalidInput(f"color {d!r} has no recorded lattice image")
        if not contains(cc.cone, rho[d]):
            raise InvalidInput(f"color {d!r} maps outside its colored cone")
    color_rays = {primitive_direction(rho[d]) for d in cc.colors}
    for g in cc.cone.gens:
        if not contains(vcone, g) and primitive_direction(g) not in color_rays:
            raise InvalidInput(f"generator {g} is neither a valuation-cone element nor a color image")
    if not _relint_meets_valuation(cc.cone, vcone):
        raise InvalidInput("colored cone has no interior valuation point")
