"""Exact simplicial rational cones and fans.

Cones are given by linearly independent generator lists, stored primitive
with respect to a reference lattice (the standard integer lattice unless a
basis is supplied).  `cone` works on integer rows from its input on: on
the standard lattice the generators are primitive integer rows,
deduplicated and sorted as int tuples, and Fraction appears only in the
public generators built from them.  A reference lattice is read through
its dual rows, integer dot products with no elimination, solved once per
fan by the callers that build many cones on one lattice and kept on the
cones, with no module-level cache.  Each cone carries its integer
description, the dual basis (N, d) of its generators: integer rows over
one denominator d > 0, whose first rows are the facet functionals and the
remaining rows the equations of the span, from one elimination per cone
built by `cone`, or handed over where the structure gives it (the
valuation cone, the Weyl chambers); its faces read theirs off these rows.
Every cone question reads them exactly: membership and a point's support in
the generators by one reader, `_support`, the signs of integer dot products
with the point scaled to integers; fan validity first by a certificate
linear in the cones, which accepts exactly the complete fans (a
pseudomanifold whose two cones on each wall lie on its two sides, with one
point covered once), and otherwise pairwise, by a functional combined from
the rows that separates two cones and vanishes on the generators they
share; coverage by enumerating the open cells of the arrangement of the
cover's rows read on the target's generator weights, each leaf cell decided
by the signs its path fixed.  A fan and a colored fan name their cones
once, where they are built, by generator indices into one sorted ray list,
`_ray_keys`, and every reader reads them.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations
from math import gcd
from operator import itemgetter, mul
from typing import Iterable, Optional, Sequence

from ._record import Record, cached, keep
from .errors import BoundExceeded, InvalidInput
from .linalg import (
    Matrix, Vector, _common_ints, _dual_rows, _echelon, _eliminate, _int_row, _int_unit, _primitive_ints,
    primitive_direction, qm, qv, smith_normal_form,
)

# Pairs of maximal cones `fan` checks one by one when its certificate fails,
# refused above the bound as weyl_enumerate refuses a large group: the most
# the library, its casebook, tests and benchmark check is 1,176 pairs, and
# 18,145 pairs (the D4 chamber fan less one cone) take about 2 s.
MAX_FAN_PAIRS = 20_000

# The distinct rows cutting a `covered_by` target (one recursion level each,
# so Python's limit stays far) and the cells it visits, refused above the
# bounds: the library, its casebook, tests and benchmark reach 16 and 1,201.
MAX_COVER_ROWS = 256
MAX_COVER_CELLS = 20_000


class RationalCone(Record):
    """A simplicial cone: independent generators, primitive in the lattice.

    Two integer solves are kept on the cone, out of equality, hashing and
    repr, written by the `_record` protocol.  ``_dual``, the dual basis
    (N, d) of the generators: the rows of N/d read the coordinates of a
    vector in the generators, then the equations of their span (unit rows
    over 1 for the zero cone).  `cone` and `faces` hand it over, as does a
    caller that knows it, and a cone built directly solves it on first
    read.  ``_lat``, the lattice's dual rows, read by `_lattice_ints`
    (None for the standard lattice or when not handed over): a caller
    building many cones on one lattice solves it once and hands the rows to
    each, and faces share them.
    """

    ambient_dim: int
    gens: Matrix
    lattice: Optional[Matrix] = None
    _dual: tuple = cached(lambda c: _dual_rows(c.gens, c.ambient_dim))
    _lat: Optional[tuple] = None

    def __init__(self, ambient_dim: int, gens: Matrix, lattice: Optional[Matrix] = None, *, _dual=None, _lat=None):
        set_ = object.__setattr__
        set_(self, "ambient_dim", ambient_dim)
        set_(self, "gens", gens)
        set_(self, "lattice", lattice)
        if _dual is not None:
            keep(self, "_dual", _dual)
        keep(self, "_lat", _lat)

    @property
    def dim(self) -> int:
        return len(self.gens)

    def lattice_rank(self) -> int:
        return self.ambient_dim if self.lattice is None else len(self.lattice)

    def lattice_coords(self, v: Sequence[Q]) -> Vector:
        (coords,), d = _lattice_ints(self.lattice, [qv(v)], rows=self._lat)
        return tuple(Q(x, d) for x in coords)


def _text(v: Iterable) -> str:
    """A vector as a message writes it: (1/2, -3)."""
    return f"({', '.join(map(str, v))})"


def _lattice_ints(
    lattice: Optional[Matrix], vectors: Sequence[Vector], name: str = "vector", rows: Optional[tuple] = None
) -> tuple[list[list[int]], int]:
    """Coordinates in the lattice rows (the standard lattice for None), as
    integer rows over their least common denominator, read as integer dot
    products with the lattice's dual rows (N, d) = `_dual_rows` of L: the
    first k rows of N/d give the coordinates and the others vanish exactly
    on the span.  ``rows`` hands over that solve, made once per lattice by
    a caller building many cones on it; without it this call solves.  A
    vector of another length (checked before any solve) or off the span is
    refused, named by ``name.format(v)``, v written as (1/2, -3): the first
    vector an off-span row does not vanish on."""
    if lattice is None or not vectors:
        return _common_ints(vectors)
    k, dim = len(lattice), len(lattice[0]) if lattice else len(vectors[0])
    off = [v for v in vectors if len(v) != dim]
    if not off:
        n, d = rows if rows is not None else _dual_rows(lattice, dim)
        ints, s = _common_ints(vectors)
        dots = [[sum(map(mul, row, w)) for row in n] for w in ints]
        off = [v for v, x in zip(vectors, dots) if any(x[k:])]
    if off:
        raise InvalidInput(f"{name.format(_text(off[0]))} lies outside the span of the reference lattice")
    # the coordinates, over their least positive denominator
    g = gcd(d * s, *(x for row in dots for x in row[:k]))
    return [[x // g for x in row[:k]] for row in dots], d * s // g


def _primitivize(vectors: Sequence[Vector], lattice: Optional[Matrix], rows: Optional[tuple] = None) -> list[Vector]:
    """Each vector scaled to the primitive lattice vector on its ray, all
    read from one lattice solve, or from its ``rows`` (`_lattice_ints`)."""
    if lattice is None:
        return [primitive_direction(g) for g in vectors]
    coords, _ = _lattice_ints(lattice, vectors, "generator {}", rows)
    prim = [_primitive_ints(c) for c in coords]
    # the primitive integer combinations of the lattice rows, on their integer rows over s
    ints, s = _common_ints(lattice)
    cols = tuple(zip(*ints))
    return [tuple(Q(sum(map(mul, col, c)), s) for col in cols) for c in prim]


def cone(
    generators: Iterable[Sequence],
    lattice: Optional[Matrix] = None,
    ambient_dim: Optional[int] = None,
    *,
    _lat: Optional[tuple] = None,
) -> RationalCone:
    """Build a simplicial cone; dependent generator sets are rejected.

    On the standard lattice the generators are primitive integer rows,
    deduplicated and sorted as int tuples (which order as their Fractions
    do), and the dual basis is solved on those rows; ``_lat`` hands over the
    dual rows of a reference lattice, solved once by the caller
    (`_lattice_ints`)."""
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
        prim = rows = tuple(sorted(set(_primitivize(nonzero, lattice, _lat))))
    try:
        dual = _dual_rows(rows, ambient_dim)
    except InvalidInput:
        raise InvalidInput("cone generators must be linearly independent (simplicial cones only)") from None
    return RationalCone(ambient_dim, prim, lattice, _dual=dual, _lat=_lat)


def zero_cone(ambient_dim: int, lattice: Optional[Matrix] = None) -> RationalCone:
    return RationalCone(ambient_dim=ambient_dim, gens=(), lattice=qm(lattice) if lattice else None)


def _point_ints(v: Sequence) -> Sequence[int]:
    """A positive integer multiple of a rational point."""
    return _int_row(v if all(type(x) is int or type(x) is Q for x in v) else qv(v))


def _support(c: RationalCone, w: Sequence[int]) -> Optional[int]:
    """The bitmask of a point's nonzero coordinates in the generators, or
    None off the cone (a span row nonzero or a facet row negative at it);
    the point is integers up to a positive scale, which changes no sign."""
    k = len(c.gens)
    dots = [sum(map(mul, row, w)) for row in c._dual[0]]
    if any(dots[k:]):
        return None
    m = 0
    for i, x in enumerate(dots[:k]):
        if x < 0:
            return None
        m |= (x > 0) << i
    return m


def _coordinate_support(c: RationalCone, v: Sequence) -> Optional[int]:
    """`_support` of a rational point of the cone's ambient dimension."""
    if len(v) != c.ambient_dim:
        raise InvalidInput("dimension mismatch in cone membership")
    return _support(c, _point_ints(v))


def contains(c: RationalCone, v: Sequence, strict: bool = False) -> bool:
    """Exact membership; strict means the relative interior (full support)."""
    m = _coordinate_support(c, v)
    return m is not None and (not strict or m == (1 << c.dim) - 1)


def _face_subsets(k: int) -> Iterable[tuple[int, ...]]:
    """Generator index subsets of a k-generator simplicial cone, by size."""
    return (s for size in range(k + 1) for s in combinations(range(k), size))


def _face(c: RationalCone, s: Sequence[int]) -> RationalCone:
    """The face on the generator index subset s, with the cone's dual basis
    reordered: its own generators' rows first, then the other generators'
    rows and the span equations, which together vanish exactly on the
    face's span."""
    rows, d = c._dual
    order = [*s, *(i for i in range(c.dim) if i not in s)]
    dual = (tuple(rows[i] for i in order) + rows[c.dim :], d)
    return RationalCone(c.ambient_dim, tuple(c.gens[i] for i in s), c.lattice, _dual=dual, _lat=c._lat)


def faces(c: RationalCone) -> list[RationalCone]:
    """Every face, one per generator subset in `_face_subsets` order, each
    reading its rows off the cone's (`_face`)."""
    return [_face(c, s) for s in _face_subsets(c.dim)]


def is_smooth(c: RationalCone) -> bool:
    """True when the primitive generators extend to a basis of the lattice:
    their lattice coordinates are integers and, for a cone of full lattice
    rank, have determinant 1 or -1 (one `_echelon`), or else one invariant
    factor 1 per generator (Smith normal form)."""
    if not c.gens:
        return True
    rows, s = _lattice_ints(c.lattice, c.gens, rows=c._lat)
    if s != 1:
        return False
    if len(rows) == c.lattice_rank():
        # a square integer matrix is invertible over Z exactly when |det| = 1
        _, pivots, d = _echelon(rows, reduced=False)
        return len(pivots) == len(rows) and abs(d) == 1
    # exactly when their integer coordinates have one invariant factor 1 per row
    return smith_normal_form(rows)[0].count(1) == len(rows)


class Fan(Record):
    """A finite collection of cones closed under faces, faces left implicit.

    Its ray names, the sorted distinct rays and each maximal cone's indices
    into them (`_ray_keys`), are kept on the fan, out of equality, hashing
    and repr, by the `_record` protocol: `fan` hands over the names it has
    found, and the constructor finds them for a fan built directly.
    """

    ambient_dim: int
    maximal_cones: tuple[RationalCone, ...]
    lattice: Optional[Matrix] = None
    _names: tuple = cached(lambda f: _ray_keys([c.gens for c in f.maximal_cones]), eager=True)

    def rays(self) -> tuple[Vector, ...]:
        return tuple(self._names[0])


def _ray_keys(gen_lists: Sequence[Sequence[Vector]]) -> tuple[list[Vector], list[tuple[int, ...]]]:
    """The sorted distinct rays of the generator lists, and each list as its
    indices into them; the index tuples order as the generator tuples.
    Each generator object is hashed once, where its id is grouped under its
    value, and the groups are sorted and named in that order, so faces,
    which share their top cone's generator objects, cost no Fraction
    hashing."""
    objects = {id(g): g for gens in gen_lists for g in gens}
    groups: dict[Vector, list[int]] = {}
    for k, g in objects.items():
        groups.setdefault(g, []).append(k)
    ordered = sorted(groups.items(), key=itemgetter(0))
    by_id = {k: i for i, (_, ids) in enumerate(ordered) for k in ids}
    return [r for r, _ in ordered], [tuple(by_id[id(g)] for g in gens) for gens in gen_lists]


def _face_compatible(c1: RationalCone, c2: RationalCone, key1: Sequence[int], key2: Sequence[int]) -> bool:
    """Whether the two cones intersect in a common face.

    The keys name each cone's generators by their indices into the fan's
    ray list, and the face is the one their shared generators span.  The
    cones meet in it exactly when a functional vanishes on the shared
    generators and is strictly positive (negative) on the remaining
    generators of the first (second) cone (Cox, Little and Schenck, Toric
    Varieties, Lemma 1.2.13).  A generator of one cone lying in the other
    without being one of its generators leaves no such functional, so the
    pair is refused without testing ray membership.
    """
    shared = set(key1) & set(key2)
    extras2 = [h for h, r in zip(c2.gens, key2) if r not in shared]
    if not extras2 and len(shared) == len(c1.gens):
        return True
    # the functional is u = sum a_j N_j over the rows N_j of c1's dual basis:
    # u . g_j = d a_j on c1's generators and the equation rows vanish there,
    # so a_j is 0 on shared generators, at least 1 on the others, and free
    # on the equation rows; every other generator h of c2 needs u . h <= -1
    k = len(c1.gens)
    free = [*(j for j, r in enumerate(key1) if r not in shared), *range(k, c1.ambient_dim)]
    on_h = _rows_on_weights(c1, extras2)
    ineqs = [(_int_unit(len(free), i), 1) for i, j in enumerate(free) if j < k]
    ineqs += [(tuple(-on_h[j][t] for j in free), 1) for t in range(len(extras2))]
    return _eliminate(len(free), [], ineqs)


def _walls(cones: Sequence[RationalCone], keys: Sequence[Sequence[int]]) -> Optional[list]:
    """The pseudomanifold test of a simplicial fan's maximal cones, named by
    their keys: the two sides of each wall, a key less one index, as
    ((cone position, generator position), (cone position, generator
    position)); None unless every maximal cone spans the lattice rank and
    every wall lies in exactly two of them.  A wall is named by its sorted
    indices, a tuple, and closed at its second side; a third side refuses,
    and then no wall is left with one side exactly when the closed walls
    count every side twice."""
    r = cones[0].lattice_rank()
    if any(c.dim != r for c in cones):
        return None
    walls: dict[tuple, Optional[tuple[int, int]]] = {}
    pairs = []
    for n, key in enumerate(keys):
        ids = tuple(sorted(key))
        for i, x in enumerate(ids):
            wall, side = ids[:i] + ids[i + 1 :], (n, key.index(x))
            other = walls.setdefault(wall, side)
            if other is not side:
                if other is None:
                    return None
                walls[wall] = None
                pairs.append((other, side))
    return pairs if 2 * len(pairs) == r * len(keys) else None


def _certified_complete(cones: Sequence[RationalCone], keys: Sequence[Sequence[int]], rays: Sequence[Vector]) -> bool:
    """A certificate, in time linear in the cones, that the maximal cones
    meet in common faces and cover the span of their lattice; False
    certifies nothing.

    The cones pass when all of them lie in the span of the first, they form
    a pseudomanifold (`_walls`), the two cones on each wall lie on its two
    sides (the facet row of one, opposite the wall, is negative on the other
    cone's generator off the wall), and the sum of the first cone's
    generators lies in no other cone.  The first three make the cones a
    locally one-to-one cover of the sphere, and the last says one point is
    covered once, so every point is: the cones triangulate the span (De
    Loera, Rambau and Santos, Triangulations, ch. 4).
    """
    walls = _walls(cones, keys)
    if walls is None:
        return False
    ints = [_point_ints(g) for g in rays]
    # a cone built directly may lie off its lattice's span, so one plane is checked
    rows, _ = cones[0]._dual
    if any(sum(map(mul, row, w)) for row in rows[len(cones[0].gens) :] for w in ints):
        return False
    for (a, i), (b, j) in walls:
        if sum(map(mul, cones[a]._dual[0][i], ints[keys[b][j]])) >= 0:
            return False
    point = _point_ints([sum(col) for col in zip(*cones[0].gens)])
    return all(_support(c, point) is None for c in cones[1:])


def fan(cones: Iterable[RationalCone], validate: bool = True) -> Fan:
    """Assemble a fan from maximal cones and re-check its validity.

    A complete fan is validated by `_certified_complete`; any other set of
    maximal cones by one elimination per pair, refused with BoundExceeded
    before the first pair when there are more than ``MAX_FAN_PAIRS`` pairs.
    With validate=False the cones are trusted to meet in common faces;
    `is_complete` relies on that and may answer wrongly on a fan that breaks it."""
    cones = list(cones)
    if not cones:
        raise InvalidInput("a fan needs at least one cone")
    dim = cones[0].ambient_dim
    lattice = cones[0].lattice
    for c in cones:
        if c.ambient_dim != dim or c.lattice != lattice:
            raise InvalidInput("fan cones must share one ambient space and lattice")
    # name each cone by its generators' indices into the sorted ray list;
    # drop duplicates and cones that are faces of others, which have
    # strictly fewer generators, so the longest keys are kept unsearched
    rays, all_keys = _ray_keys([c.gens for c in cones])
    unique = dict(zip(all_keys, cones))
    longest = max(map(len, unique))
    keys = sorted(
        k for k in unique if len(k) == longest or not any(len(o) > len(k) and set(k) <= set(o) for o in unique)
    )
    maximal = [unique[key] for key in keys]
    result = Fan(ambient_dim=dim, maximal_cones=tuple(maximal), lattice=lattice, _names=(rays, keys))
    if validate and not _certified_complete(maximal, keys, rays):
        pairs = len(maximal) * (len(maximal) - 1) // 2
        if pairs > MAX_FAN_PAIRS:
            raise BoundExceeded(
                f"{len(maximal)} maximal cones make {pairs} pairs to check, above the bound {MAX_FAN_PAIRS}"
            )
        for (a, key_a), (b, key_b) in combinations(zip(maximal, keys), 2):
            if not _face_compatible(a, b, key_a, key_b):
                a_text, b_text = (_text(map(_text, c.gens)) for c in (a, b))
                raise InvalidInput(f"cones {a_text} and {b_text} do not intersect in a common face")
    return result


def is_complete(f: Fan) -> bool:
    """Whether the fan's support is the whole span of its reference lattice.

    The fan must be one `fan` validates: its cones meet in common faces.
    Then this is the pseudomanifold criterion for complete simplicial fans
    (Cox, Little and Schenck, Toric Varieties, ch. 3): every maximal cone
    spans the lattice, and every wall, a facet of a maximal cone, lies in
    exactly two maximal cones (`_walls`).  Two full cones on one wall lie on
    its two sides, so the boundary of the support could only lie in cones of
    codimension two, which cannot separate the sphere; in rank 1 the one
    wall, the origin, lies in the two opposite rays.
    """
    return _walls(f.maximal_cones, f._names[1]) is not None


def star_subdivision(f: Fan, ray: Sequence) -> Fan:
    """Subdivide at a ray of the fan's ambient dimension (checked before any
    lattice is read) in its support: cones containing it are replaced by joins
    with their facets that avoid it, the facets opposite the generators where
    the ray's coordinate is nonzero, both read off one `_support` per cone."""
    if len(ray) != f.ambient_dim:
        raise InvalidInput(f"subdivision ray has length {len(ray)}, not the fan's ambient dimension {f.ambient_dim}")
    lat = f.maximal_cones[0]._lat
    (ray_p,) = _primitivize([qv(ray)], f.lattice, lat)
    if any(c.ambient_dim != f.ambient_dim for c in f.maximal_cones):
        raise InvalidInput("dimension mismatch in cone membership")
    w = _point_ints(ray_p)
    supports = [_support(c, w) for c in f.maximal_cones]
    if all(m is None for m in supports):
        raise InvalidInput("subdivision ray lies outside the support of the fan")
    new_cones = [c for c, m in zip(f.maximal_cones, supports) if m is None]
    for c, m in zip(f.maximal_cones, supports):
        for i in range(c.dim):
            if m is not None and m >> i & 1:
                facet = [*c.gens[:i], *c.gens[i + 1 :]]
                new_cones.append(cone([*facet, ray_p], lattice=c.lattice, ambient_dim=c.ambient_dim, _lat=lat))
    return fan(new_cones)


def _rows_on_weights(c: RationalCone, gens: Sequence[Vector]) -> list[tuple[int, ...]]:
    """The rows of the cone's dual basis (see `_support`) as integer linear
    forms in generator weights.

    Row r holds rows[r] . (s g) for each g in gens, where s is the one lcm of
    all the generators' denominators: a positive multiple of rows[r] read at
    the point sum_g w_g g, as a function of the weights w.
    """
    cols, _ = _common_ints(gens)
    return [tuple(sum(map(mul, row, col)) for col in cols) for row in c._dual[0]]


def covered_by(target: RationalCone, cover: Sequence[RationalCone], shortcut: bool = True) -> bool:
    """Exact decision of target being contained in the union of the cover.

    The target's relative interior is cut into open cells by every facet
    hyperplane and span of the cover cones, each kept as a primitive integer
    row on the generator weights.  A cell is split only while its system is
    feasible.  Every point of a leaf cell has the same sign on every row, the
    one its path through the splits fixed, so a cover cone holds the whole
    cell exactly when its span rows vanish identically on the weights and
    its nonzero facet rows are positive on the cell: the verdict is exact
    and read off signs.  A cover with more than ``MAX_COVER_ROWS`` distinct
    rows is refused with BoundExceeded before any cell, and a walk past
    ``MAX_COVER_CELLS`` cells when it gets there.
    """
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

    # the distinct nonzero rows in order, primitive with a positive first
    # entry; each cover cone names its nonzero facet rows by (index, whether
    # a positive multiple) and its nonzero span rows by None, which keep it
    # from holding any leaf cell
    distinct: dict[tuple[int, ...], int] = {}
    holders = []
    for c in cover:
        facets = []
        for r, psi in enumerate(_rows_on_weights(c, gens)):
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

    def cell_covered(constraints, signs: tuple[bool, ...]) -> bool:
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
