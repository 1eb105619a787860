"""`cone` as it was before the cones of one ray list were built by one call,
kept as the oracle.

``cone`` took the lattice's dual rows through a private keyword, ``_lat``,
and the fan JSON reader, the subtorus fans and `star_subdivision` each
called it once per cone, with those rows solved once per fan; ``cones`` is
that loop.  Every generator was scaled to its primitive lattice vector again
by each cone that held it (``primitivize``), and the generators were
deduplicated as Fraction tuples on a reference lattice.
"""

from fractions import Fraction as Q
from operator import mul

from weylfans.errors import InvalidInput
from weylfans.linalg import _common_ints, _dual_rows, _primitive_ints, primitive_direction, qm, qv
from weylfans.polyhedra import RationalCone, _lattice_ints


def primitivize(vectors, lattice, rows=None):
    if lattice is None:
        return [primitive_direction(g) for g in vectors]
    coords, _ = _lattice_ints(lattice, vectors, "generator {}", rows)
    prim = [_primitive_ints(c) for c in coords]
    ints, s = _common_ints(lattice)
    cols = tuple(zip(*ints))
    return [tuple(Q(sum(map(mul, col, c)), s) for col in cols) for c in prim]


def cone(generators, lattice=None, ambient_dim=None, *, _lat=None):
    gens = [qv(g) for g in generators]
    if ambient_dim is None:
        if not gens:
            raise InvalidInput("a generator-free cone needs an explicit ambient dimension")
        ambient_dim = len(gens[0])
    if any(len(g) != ambient_dim for g in gens):
        raise InvalidInput("cone generators of mixed dimension")
    nonzero = [g for g in gens if any(g)]
    if lattice is None:
        rows = sorted({tuple(_primitive_ints(g)) for g in nonzero})
        prim = tuple(tuple(map(Q, row)) for row in rows)
    else:
        lattice = qm(lattice)
        prim = rows = tuple(sorted(set(primitivize(nonzero, lattice, _lat))))
    try:
        dual = _dual_rows(rows, ambient_dim)
    except InvalidInput:
        raise InvalidInput("cone generators must be linearly independent (simplicial cones only)") from None
    return RationalCone(ambient_dim, prim, lattice, _dual=dual, _lat=_lat)


def cones(rays, keys, ambient_dim, lattice=None, lat=None):
    """One `cone` per index list, each handed the lattice's rows."""
    return [cone([rays[i] for i in ids], lattice=lattice, ambient_dim=ambient_dim, _lat=lat) for ids in keys]
