"""Exact simplicial rational cones and fans.

Cones are given by linearly independent generator lists, stored primitive
with respect to a reference lattice (the standard integer lattice unless a
basis is supplied).  Every cone question reads one description of the
cone, the cached integer dual basis of its generators: its first rows are
the facet functionals and the remaining rows the equations of the span.
Everything is decided exactly: membership by reading coordinates off it,
fan validity by a separating functional combined from its rows, coverage by
enumerating the open cells of the arrangement of the cover's rows read on
the target's generator weights and testing one rational witness per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .errors import InvalidInput
from .linalg import (
    Matrix,
    Vector,
    _common_ints,
    _dual_basis,
    _unit,
    as_int_matrix,
    coords_in_basis,
    feasible,
    is_zero_vector,
    mat_vec,
    minors_gcd,
    primitive_direction,
    qm,
    qv,
    rank,
    transpose,
    vneg,
    vscale,
)


@dataclass(frozen=True)
class RationalCone:
    """A simplicial cone: independent generators, primitive in the lattice."""

    ambient_dim: int
    gens: Matrix
    lattice: Optional[Matrix] = None

    @property
    def dim(self) -> int:
        return len(self.gens)

    def lattice_rank(self) -> int:
        return self.ambient_dim if self.lattice is None else len(self.lattice)

    def lattice_coords(self, v: Sequence[Q]) -> Vector:
        if self.lattice is None:
            return qv(v)
        coords = coords_in_basis(self.lattice, qv(v))
        if coords is None:
            raise InvalidInput("vector lies outside the span of the reference lattice")
        return coords


def _primitivize(g: Vector, lattice: Optional[Matrix]) -> Vector:
    if lattice is None:
        return primitive_direction(g)
    coords = coords_in_basis(lattice, g)
    if coords is None:
        raise InvalidInput(f"generator {g} lies outside the span of the reference lattice")
    return mat_vec(transpose(lattice), primitive_direction(coords))


def cone(
    generators: Iterable[Sequence],
    lattice: Optional[Matrix] = None,
    ambient_dim: Optional[int] = None,
) -> RationalCone:
    """Build a simplicial cone; dependent generator sets are rejected."""
    gens = [qv(g) for g in generators]
    if ambient_dim is None:
        if not gens:
            raise InvalidInput("a generator-free cone needs an explicit ambient dimension")
        ambient_dim = len(gens[0])
    if any(len(g) != ambient_dim for g in gens):
        raise InvalidInput("cone generators of mixed dimension")
    if lattice is not None:
        lattice = qm(lattice)
    prim = sorted({_primitivize(g, lattice) for g in gens if not is_zero_vector(g)})
    if rank(qm(prim)) != len(prim):
        raise InvalidInput("cone generators must be linearly independent (simplicial cones only)")
    return RationalCone(ambient_dim=ambient_dim, gens=tuple(prim), lattice=lattice)


def zero_cone(ambient_dim: int, lattice: Optional[Matrix] = None) -> RationalCone:
    return RationalCone(ambient_dim=ambient_dim, gens=(), lattice=qm(lattice) if lattice else None)


def contains(c: RationalCone, v: Sequence, strict: bool = False) -> bool:
    """Exact membership; strict means membership in the relative interior."""
    v = qv(v)
    if len(v) != c.ambient_dim:
        raise InvalidInput("dimension mismatch in cone membership")
    coords = coords_in_basis(c.gens, v)
    if coords is None:
        return False
    if strict:
        return all(x > 0 for x in coords)
    return all(x >= 0 for x in coords)


def faces(c: RationalCone) -> list[RationalCone]:
    """Every face; for a simplicial cone these are the generator subsets."""
    out = []
    for size in range(len(c.gens) + 1):
        for subset in combinations(c.gens, size):
            out.append(RationalCone(c.ambient_dim, subset, c.lattice))
    return out


def is_smooth(c: RationalCone) -> bool:
    """True when the primitive generators extend to a basis of the lattice."""
    if not c.gens:
        return True
    coords = [c.lattice_coords(g) for g in c.gens]
    try:
        int_rows = as_int_matrix(qm(coords))
    except InvalidInput:
        return False
    return minors_gcd(int_rows, len(c.gens)) == 1


@dataclass(frozen=True)
class Fan:
    """A finite collection of cones closed under faces, faces left implicit."""

    ambient_dim: int
    maximal_cones: tuple[RationalCone, ...]
    lattice: Optional[Matrix] = None

    def rays(self) -> tuple[Vector, ...]:
        return tuple(sorted({g for c in self.maximal_cones for g in c.gens}))

    def all_cones(self) -> list[RationalCone]:
        seen: dict[Matrix, RationalCone] = {}
        for c in self.maximal_cones:
            for f in faces(c):
                seen[f.gens] = f
        return [seen[k] for k in sorted(seen)]


def _face_compatible(
    c1: RationalCone, c2: RationalCone, rays_in_c1: frozenset, rays_in_c2: frozenset
) -> bool:
    """Whether the two cones intersect in a common face.

    Decided by searching for a separating functional that vanishes on the
    shared generators and is strictly positive (negative) on the remaining
    generators of the first (second) cone; for polyhedral cones such a
    functional exists exactly when the intersection is a common face.
    The ray-membership sets name the rays of the fan lying in each cone.
    """
    s1 = {g for g in c1.gens if g in rays_in_c2}
    s2 = {g for g in c2.gens if g in rays_in_c1}
    if s1 != s2:
        return False
    extras2 = [h for h in c2.gens if h not in s1]
    if not extras2 and len(s1) == len(c1.gens):
        return True
    # the functional is u = sum a_j N_j over the rows N_j of c1's dual basis:
    # u . g_j = d a_j on c1's generators and the equation rows vanish there,
    # so a_j is 0 on shared generators, at least 1 on the others, and free
    # on the equation rows; every other generator h of c2 needs u . h <= -1
    k = len(c1.gens)
    free = [j for j, g in enumerate(c1.gens) if g not in s1]
    free += range(k, c1.ambient_dim)
    on_h = _rows_on_weights(c1, extras2)
    ineqs = [(_unit(len(free), i), 1) for i, j in enumerate(free) if j < k]
    ineqs += [(tuple(-on_h[j][t] for j in free), 1) for t in range(len(extras2))]
    return feasible(len(free), [], ineqs) is not None


def fan(cones: Iterable[RationalCone], validate: bool = True) -> Fan:
    """Assemble a fan from maximal cones and re-check its validity."""
    cones = list(cones)
    if not cones:
        raise InvalidInput("a fan needs at least one cone")
    dim = cones[0].ambient_dim
    lattice = cones[0].lattice
    for c in cones:
        if c.ambient_dim != dim or c.lattice != lattice:
            raise InvalidInput("fan cones must share one ambient space and lattice")
    # drop duplicates and cones that are faces of others; a proper face has
    # strictly fewer generators, so only smaller cones need the subset scan
    unique: dict[Matrix, RationalCone] = {c.gens: c for c in cones}
    bigger_keys = sorted(unique, key=len, reverse=True)
    maximal = []
    for key, c in unique.items():
        key_set = set(key)
        absorbed = False
        for other in bigger_keys:
            if len(other) <= len(key):
                break
            if key_set <= set(other):
                absorbed = True
                break
        if not absorbed:
            maximal.append(c)
    maximal.sort(key=lambda c: c.gens)
    result = Fan(ambient_dim=dim, maximal_cones=tuple(maximal), lattice=lattice)
    if validate:
        all_rays = sorted({g for c in maximal for g in c.gens})
        membership = [
            frozenset(r for r in all_rays if contains(c, r)) for c in maximal
        ]
        for (i, a), (j, b) in combinations(enumerate(maximal), 2):
            if not _face_compatible(a, b, membership[i], membership[j]):
                raise InvalidInput(
                    f"cones {a.gens} and {b.gens} do not intersect in a common face"
                )
    return result


def is_complete(f: Fan) -> bool:
    """Whether the fan's support is the whole span of its reference lattice."""
    r = f.maximal_cones[0].lattice_rank()
    rays = f.rays()
    if rays and rank(qm(rays)) < r:
        return False
    if r == 0:
        return True
    if r == 1:
        coords = [f.maximal_cones[0].lattice_coords(ray) for ray in rays]
        signs = {1 if c[0] > 0 else -1 for c in coords}
        return signs == {1, -1}
    if r == 2:
        if any(c.dim != 2 for c in f.maximal_cones):
            return False
        count = {ray: 0 for ray in rays}
        for c in f.maximal_cones:
            for g in c.gens:
                count[g] += 1
        return all(n == 2 for n in count.values())
    lattice = f.lattice if f.lattice is not None else identity_lattice(f.ambient_dim)
    for signs in product((1, -1), repeat=r):
        orthant = cone(
            [vscale(s, row) for s, row in zip(signs, lattice)],
            lattice=f.lattice,
            ambient_dim=f.ambient_dim,
        )
        if not covered_by(orthant, f.maximal_cones):
            return False
    return True


def identity_lattice(dim: int) -> Matrix:
    return qm([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])


def star_subdivision(f: Fan, ray: Sequence) -> Fan:
    """Subdivide at a ray: cones containing it are replaced by joins with
    their facets that avoid it.  The ray must lie in the support."""
    ray_p = _primitivize(qv(ray), f.lattice)
    containing = [c for c in f.maximal_cones if contains(c, ray_p)]
    if not containing:
        raise InvalidInput("subdivision ray lies outside the support of the fan")
    new_cones = [c for c in f.maximal_cones if not contains(c, ray_p)]
    for c in containing:
        for facet in combinations(c.gens, len(c.gens) - 1):
            facet_cone = RationalCone(c.ambient_dim, facet, c.lattice)
            if not contains(facet_cone, ray_p):
                new_cones.append(cone(list(facet) + [ray_p], lattice=c.lattice, ambient_dim=c.ambient_dim))
    return fan(new_cones)


def _membership_functionals(c: RationalCone) -> tuple[tuple[int, ...], ...]:
    """Integer rows cutting out the cone: x lies in c iff the rows from
    len(c.gens) on (the span equations) vanish at x and the first len(c.gens)
    rows (the facets) are nonnegative at x.  They are the rows of the cone's
    cached dual basis, whose positive denominator changes no sign."""
    if not c.gens:
        return tuple(tuple(int(i == j) for j in range(c.ambient_dim)) for i in range(c.ambient_dim))
    return _dual_basis(c.gens)[0]


def _rows_on_weights(c: RationalCone, gens: Sequence[Vector]) -> list[tuple[int, ...]]:
    """The cone's membership rows as integer linear forms in generator weights.

    Row r holds rows[r] . (s g) for each g in gens, where s is the one lcm of
    all the generators' denominators: a positive multiple of rows[r] read at
    the point sum_g w_g g, as a function of the weights w.
    """
    cols, _ = _common_ints(gens)
    return [tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in _membership_functionals(c)]


def covered_by(
    target: RationalCone,
    cover: Sequence[RationalCone],
    shortcut: bool = True,
) -> bool:
    """Exact decision of target being contained in the union of the cover.

    The target's relative interior is cut into open cells by every facet
    hyperplane and span of the cover cones; one rational witness per
    nonempty cell is tested for membership.  Membership of a whole cell in
    any cover cone is constant, so the verdict is exact.
    """
    cover = list(cover)
    for c in cover:
        if c.ambient_dim != target.ambient_dim:
            raise InvalidInput("cover cones live in a different ambient space")
    if not target.gens:
        return bool(cover)
    if shortcut:
        for c in cover:
            if all(contains(c, g) for g in target.gens):
                return True
    gens = target.gens
    k = len(gens)

    funcs: list[Vector] = []
    seen: set[Vector] = set()
    for c in cover:
        for psi in _rows_on_weights(c, gens):
            if not any(psi):
                continue
            key = primitive_direction(psi)
            if key[next(i for i, x in enumerate(key) if x != 0)] < 0:
                key = vneg(key)
            if key not in seen:
                seen.add(key)
                funcs.append(key)

    base = [(_unit(k, i), Q(1)) for i in range(k)]

    def cell_covered(depth: int, constraints) -> bool:
        witness = feasible(k, [], constraints)
        if witness is None:
            return True
        if depth == len(funcs):
            point = mat_vec(transpose(gens), witness)
            return any(contains(c, point) for c in cover)
        psi = funcs[depth]
        return cell_covered(depth + 1, constraints + [(psi, Q(1))]) and cell_covered(
            depth + 1, constraints + [(vneg(psi), Q(1))]
        )

    return cell_covered(0, base)
