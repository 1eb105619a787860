"""The cone questions as they were before a cone kept its generators as
integer rows (``RationalCone._ints``), kept as oracles.

Each question scaled the cone's Fraction generators to integers itself:
``covered_by``, ``certified_complete`` and ``extends_to_morphism`` one
generator or ray at a time (``_point_ints``), and ``face_compatible``,
``relint_meets_valuation`` and ``colored_faces`` all of them at once,
inside the ``rows_on_weights`` that took Fraction generators; ``is_smooth``
had ``_lattice_ints`` rescale them.  The rest of each function is the
package's own text, and reads the same unchanged helpers.
"""

from math import gcd
from operator import mul

from old_kernels import _point_ints, coordinate_support

from weylfans.errors import BoundExceeded, InvalidInput
from weylfans.linalg import (
    _common_ints, _echelon, _eliminate, _extreme_ray_supports, _int_mat_vec, _int_unit, qm, smith_normal_form,
)
from weylfans.polyhedra import MAX_COVER_CELLS, MAX_COVER_ROWS, _face, _face_subsets, _lattice_ints, _support, _walls
from weylfans.spherical import MAX_COLORED_FACES, ColoredCone, _check_face_bound, _mask


def rows_on_weights(c, gens):
    cols, _ = _common_ints(gens)
    return [tuple(sum(map(mul, row, col)) for col in cols) for row in c._dual[0]]


def is_smooth(c):
    if not c.gens:
        return True
    rows, s = _lattice_ints(c.lattice, c.gens, rows=c._lat)
    if s != 1:
        return False
    if len(rows) == c.lattice_rank():
        _, pivots, d = _echelon(rows, reduced=False)
        return len(pivots) == len(rows) and abs(d) == 1
    return smith_normal_form(rows)[0].count(1) == len(rows)


def face_compatible(c1, c2, key1, key2):
    shared = set(key1) & set(key2)
    extras2 = [h for h, r in zip(c2.gens, key2) if r not in shared]
    if not extras2 and len(shared) == len(c1.gens):
        return True
    k = len(c1.gens)
    free = [*(j for j, r in enumerate(key1) if r not in shared), *range(k, c1.ambient_dim)]
    on_h = rows_on_weights(c1, extras2)
    ineqs = [(_int_unit(len(free), i), 1) for i, j in enumerate(free) if j < k]
    ineqs += [(tuple(-on_h[j][t] for j in free), 1) for t in range(len(extras2))]
    return _eliminate(len(free), [], ineqs)


def certified_complete(cones, keys, rays):
    walls = _walls(cones, keys)
    if walls is None:
        return False
    ints = [_point_ints(g) for g in rays]
    rows, _ = cones[0]._dual
    if any(sum(map(mul, row, w)) for row in rows[len(cones[0].gens) :] for w in ints):
        return False
    for (a, i), (b, j) in walls:
        if sum(map(mul, cones[a]._dual[0][i], ints[keys[b][j]])) >= 0:
            return False
    point = _point_ints([sum(col) for col in zip(*cones[0].gens)])
    return all(_support(c, point) is None for c in cones[1:])


def covered_by(target, cover, shortcut=True):
    cover = list(cover)
    for c in cover:
        if c.ambient_dim != target.ambient_dim:
            raise InvalidInput("cover cones live in a different ambient space")
    if not target.gens:
        return bool(cover)
    gens, k = target.gens, len(target.gens)
    if shortcut:
        points = [_point_ints(g) for g in gens]
        if any(all(_support(c, w) is not None for w in points) for c in cover):
            return True
    distinct = {}
    holders = []
    for c in cover:
        facets = []
        for r, psi in enumerate(rows_on_weights(c, gens)):
            if any(psi):
                g = gcd(*psi) * (1 if next(x for x in psi if x) > 0 else -1)
                j = distinct.setdefault(tuple(x // g for x in psi), len(distinct))
                facets.append((j, g > 0) if r < c.dim else None)
        if None not in facets:
            holders.append(facets)
    funcs = list(distinct)
    if len(funcs) > MAX_COVER_ROWS:
        raise BoundExceeded(f"{len(funcs)} distinct rows cut the cone, above the bound {MAX_COVER_ROWS}")
    cells = [0]

    def cell_covered(constraints, signs):
        cells[0] += 1
        if cells[0] > MAX_COVER_CELLS:
            raise BoundExceeded(f"deciding the cover visits more than {MAX_COVER_CELLS} cells, above the bound")
        if not _eliminate(k, [], constraints):
            return True
        if len(signs) == len(funcs):
            return any(all(signs[j] == positive for j, positive in facets) for facets in holders)
        psi = funcs[len(signs)]
        return cell_covered(constraints + [(psi, 1)], signs + (True,)) and cell_covered(
            constraints + [(tuple(-x for x in psi), 1)], signs + (False,)
        )

    return cell_covered([(_int_unit(k, i), 1) for i in range(k)], ())


def relint_meets_valuation(c, vcone):
    if c.ambient_dim != vcone.ambient_dim:
        raise InvalidInput("dimension mismatch in cone membership")
    k, facets = len(c.gens), len(vcone.gens)
    rows = rows_on_weights(vcone, c.gens)
    eqs = [(row, 0) for row in rows[facets:]]
    ineqs = [(_int_unit(k, i), 1) for i in range(k)] + [(row, 0) for row in rows[:facets]]
    return _eliminate(k, eqs, ineqs)


def colored_faces(top, vcone, rho):
    c = top.cone
    if c.ambient_dim != vcone.ambient_dim:
        raise InvalidInput("dimension mismatch in cone membership")
    _check_face_bound(c.dim)
    rows = rows_on_weights(vcone, c.gens)
    rays = None if rows[vcone.dim :] else _extreme_ray_supports(c.dim, rows, MAX_COLORED_FACES)
    if rays is None:
        supports = {_mask(s) for s in _face_subsets(c.dim) if relint_meets_valuation(_face(c, s), vcone)}
    else:
        supports = {0}
        for r in rays:
            supports |= {u | r for u in supports}
    colors = [(d, coordinate_support(c, rho[d])) for d in top.colors]
    out = []
    for subset in _face_subsets(c.dim):
        s = _mask(subset)
        if s in supports:
            kept = frozenset(d for d, m in colors if m is not None and m | s == s)
            out.append((subset, ColoredCone(cone=_face(c, subset), colors=kept)))
    return out


def extends_to_morphism(source, target, lattice_map=None, dominant_colors=()):
    dominant = frozenset(dominant_colors)
    if lattice_map is not None:
        if len(lattice_map) != target.rank or any(len(row) != source.rank for row in lattice_map):
            raise InvalidInput(f"lattice map must be {target.rank} rows of length {source.rank}")
    rays, keys = source._names
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
            all(d in dominant or d in tc.colors for d in colors)
            and all(_support(tc.cone, points[r]) is not None for r in ids)
            for tc in target.cones
        ):
            return False
        mapped.append((ids, colors))
    return True
