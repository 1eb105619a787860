"""The chamber fan, smoothness and wall kernels as they were before the
chamber walk, kept as oracles.

``weyl_chamber_fan`` enumerated the Weyl group as matrices and built each
chamber w C from w's integer rows: the images of the sorted coweight basis,
and w times the dominant chamber's dual rows over d * den(w); `fan`
validated the cones and `is_complete` counted the walls again.
``is_smooth`` read every cone's smoothness off the Smith normal form of its
generators' lattice coordinates.  ``walls`` named each wall by a frozenset
of ray indices and kept the list of its sides.
"""

from operator import mul

from weylfans.errors import InvariantViolation
from weylfans.linalg import _dual_rows, qm, smith_normal_form
from weylfans.polyhedra import RationalCone, _lattice_ints, fan, is_complete
from weylfans.rootsys import weyl_enumerate, weyl_order


def weyl_chamber_fan(rs, bound=2000):
    group = weyl_enumerate(rs, bound=bound)
    lattice = qm(rs.fundamental_coweights)
    k = len(lattice)
    lat = _dual_rows(lattice, rs.ambient_dim)
    order = sorted(range(k), key=lattice.__getitem__)
    base = [lattice[i] for i in order]
    base_rows = [lat[0][i] for i in order] + list(lat[0][k:])
    cones = []
    for w in group:
        images = [w.apply(g) for g in base]
        perm = sorted(range(k), key=images.__getitem__)
        rows = [tuple(sum(map(mul, wrow, r)) for wrow in w._rows) for r in base_rows]
        dual = (tuple(rows[i] for i in perm) + tuple(rows[k:]), lat[1] * w._den)
        cones.append(RationalCone(rs.ambient_dim, tuple(images[i] for i in perm), lattice, _dual=dual, _lat=lat))
    result = fan(cones)
    if len(result.maximal_cones) != weyl_order(rs):
        raise InvariantViolation(
            f"chamber fan of {rs.label} has {len(result.maximal_cones)} cones, expected {weyl_order(rs)}"
        )
    if not is_complete(result):
        raise InvariantViolation(f"chamber fan of {rs.label} is not complete")
    return result


def is_smooth(c):
    if not c.gens:
        return True
    rows, s = _lattice_ints(c.lattice, c.gens, rows=c._lat)
    return s == 1 and smith_normal_form(rows)[0].count(1) == len(rows)


def walls(cones, keys):
    r = cones[0].lattice_rank()
    if any(c.dim != r for c in cones):
        return None
    found = {}
    for n, key in enumerate(keys):
        ids = frozenset(key)
        for i in ids:
            found.setdefault(ids - {i}, []).append((n, key.index(i)))
    return found if all(len(sides) == 2 for sides in found.values()) else None
