"""Complete smooth toric surfaces from Weyl-group data, and the boundary
bookkeeping used for anticanonical divisors of surface blowups.

Chamber fans live in the coweight lattice of their root system, built by a
walk from chamber to adjacent chamber on interned integer rays and root
indices, up to E6's 51,840 chambers by default (`MAX_CHAMBERS`); subtorus
closure fans live in a two-dimensional plane of coweights, with rays stored
primitive in the plane's saturated integer lattice; the cones' own lattice
check is the check that the group stabilizes the plane.  Ray orbits and the
invariant Picard rank are read off the group's generators as index maps,
through one orbit search.
"""

from __future__ import annotations

from fractions import Fraction as Q
from operator import mul
from typing import Iterable, Optional, Sequence

from ._record import Record
from .errors import BoundExceeded, InvalidInput, InvariantViolation
from .linalg import Vector, _common_ints, _dual_rows, _scaled_ints, qm, qv, rank, saturation_basis
from .polyhedra import Fan, RationalCone, _certified_complete, _primitivize, cone, fan, is_complete, is_smooth
from .rootsys import RootSystem, WeylElement, weyl_order


# The largest Weyl group whose chamber fan is built unless the caller passes
# another bound: E6's, whose 51,840 chambers on 1,278 rays take under 2 s
# and 110 MB as a whole `fan build` process on a 2-core x86-64 host; E7's
# 2,903,040 are refused.
MAX_CHAMBERS = 51_840


def weyl_chamber_fan(rs: RootSystem, bound: int = MAX_CHAMBERS) -> Fan:
    """The fan of Weyl chambers and their faces, in the coweight lattice.

    Maximal cones are the group translates w C of the dominant chamber,
    refused with BoundExceeded before any is built when the group's order is
    above the bound.  They are found by a walk on the chambers that forms no
    group element: w C has the rays r_k = w omega_k^vee, and its facet rows,
    the coordinates in those rays, are the roots b_k = w alpha_k.  Since
    w s_i w^-1 is the reflection s in b_i, which fixes every r_k but r_i,
    the chamber w s_i C across the wall opposite r_i has the rays r_k and
    s(r_i) = r_i - b_i^vee and the rows s(b_k).  It is longer than w C
    exactly when b_i is positive, and the walk takes it only from the w for
    which i is the first k with s(b_k) negative, so each chamber is reached
    once, one length at a time.  Rays are interned as integer rows over the
    coweights' one denominator, one Fraction tuple built per distinct ray,
    roots as indices into one reflection table, and every chamber shares the
    span equations, which W fixes.  The result is certified complete
    (`_certified_complete`), with exactly one cone per group element.
    """
    order = weyl_order(rs)
    if order > bound:
        raise BoundExceeded(f"Weyl group of {rs.label} has order {order}, above the bound {bound}")
    n, dim = rs.rank, rs.ambient_dim
    lattice = qm(rs.fundamental_coweights)
    lat = _dual_rows(lattice, dim)
    # roots as integer rows over s, coweights and coroots over den
    roots, s = _common_ints(rs.roots)
    roots = [tuple(r) for r in roots]
    root_index = {r: i for i, r in enumerate(roots)}
    positive = [sum(c) > 0 for c in rs._simple_coords]
    vectors, den = _common_ints(lattice)
    vectors = [tuple(v) for v in vectors]
    coroots, reflect = [], []
    for q in roots:
        # q^vee = 2 q / (q . q), a coweight lattice vector, so integers over
        # den; the reflection s_q(r) = r - (2 (r . q) / (q . q)) q by indices
        nq = sum(x * x for x in q)
        coroots.append(tuple(2 * s * den * x // nq for x in q))
        row = []
        for i, r in enumerate(roots):
            k = 2 * sum(map(mul, r, q)) // nq
            row.append(root_index[tuple([x - k * y for x, y in zip(r, q)])] if k else i)
        reflect.append(row)
    ray_index = {v: i for i, v in enumerate(vectors)}
    chambers = [(tuple(range(n)), tuple(root_index[tuple(_scaled_ints(a, s))] for a in rs.simple_roots))]
    for ids, betas in chambers:
        for i, b in enumerate(betas):
            if positive[b]:
                row = reflect[b]
                images = tuple([row[x] for x in betas])
                if all([positive[x] for x in images[:i]]):
                    v = tuple([x - y for x, y in zip(vectors[ids[i]], coroots[b])])
                    r = ray_index.setdefault(v, len(vectors))
                    if r == len(vectors):
                        vectors.append(v)
                    chambers.append((ids[:i] + (r,) + ids[i + 1 :], images))
    # over one positive denominator the integer rows sort as the rays do;
    # each chamber names its rays by their positions, its facet rows following
    ranked = sorted(range(len(vectors)), key=vectors.__getitem__)
    position = {r: k for k, r in enumerate(ranked)}
    entry = {x: Q(x, den) for x in {x for v in vectors for x in v}}.__getitem__
    rays = [tuple(map(entry, vectors[r])) for r in ranked]
    span = lat[0][n:]
    named = []
    for ids, betas in chambers:
        pairs = sorted(zip([position[r] for r in ids], betas))
        named.append((tuple(k for k, _ in pairs), tuple(roots[b] for _, b in pairs) + span))
    named.sort()
    keys = [key for key, _ in named]
    cones = tuple(
        RationalCone(dim, tuple(map(rays.__getitem__, key)), lattice, _dual=(rows, s), _lat=lat) for key, rows in named
    )
    if len(cones) != order:
        raise InvariantViolation(f"chamber fan of {rs.label} has {len(cones)} cones, expected {order}")
    if not _certified_complete(cones, keys, rays):
        raise InvariantViolation(f"chamber fan of {rs.label} is not complete")
    return Fan(dim, cones, lattice, _names=(rays, keys))


def subtorus_closure_fan(
    rs: RootSystem,
    wprime: Sequence[WeylElement],
    plane: Optional[Sequence[Sequence]] = None,
) -> Fan:
    """Fan of the closure of the two-dimensional subtorus cut out by the
    first and last fundamental coweights, tiled by a stabilizing subgroup.

    Each group element contributes the translate of the base cone spanned by
    the two coweights; the translates must assemble into a complete fan (the
    open-cover argument made algorithmic).  Rays are stored primitive in the
    saturated integer lattice of the plane.
    """
    if plane is None:
        plane = [rs.fundamental_coweights[0], rs.fundamental_coweights[rs.rank - 1]]
    plane = qm(plane)
    lattice = saturation_basis(plane)
    if len(lattice) != len(plane):
        raise InvalidInput("plane spanning vectors are linearly dependent")
    images = [[w.apply(b) for b in plane] for w in wprime]
    lat = _dual_rows(lattice, rs.ambient_dim)
    try:
        cones = [cone(img, lattice=lattice, ambient_dim=rs.ambient_dim, _lat=lat) for img in images]
    except InvalidInput as exc:
        # a cone refuses a generator off its lattice, here the plane's; its
        # other refusals keep their own message
        if "outside the span of the reference lattice" not in str(exc):
            raise
        raise InvalidInput("the given subgroup does not stabilize the plane") from None
    result = fan(cones)
    if not is_complete(result):
        raise InvalidInput("subtorus translates fail to tile the plane")
    return result


class ToricSurface(Record):
    """A complete smooth toric surface: a 2D fan plus named boundary divisors."""

    fan: Fan
    boundary_divisors: tuple[str, ...]

    def rays(self) -> tuple[Vector, ...]:
        return self.fan.rays()


def toric_surface(surface_fan: Fan, names: Optional[Sequence[str]] = None) -> ToricSurface:
    if surface_fan.maximal_cones[0].lattice_rank() != 2:
        raise InvalidInput("a toric surface needs a rank-two reference lattice")
    if not is_complete(surface_fan):
        raise InvalidInput("toric surface fan must be complete")
    if not all(is_smooth(c) for c in surface_fan.maximal_cones):
        raise InvalidInput("toric surface fan must be smooth")
    rays = surface_fan.rays()
    if names is None:
        names = tuple(f"D{i + 1}" for i in range(len(rays)))
    if len(names) != len(rays):
        raise InvalidInput("one boundary divisor name per ray")
    return ToricSurface(fan=surface_fan, boundary_divisors=tuple(names))


def picard_number(s: ToricSurface) -> int:
    """Rays minus two, valid because the fan is complete and smooth."""
    return len(s.fan.rays()) - 2


def _orbits(size: int, maps: Sequence[Sequence[int]]) -> list[set[int]]:
    """Orbits on range(size) of the group generated by index maps, each a
    permutation of range(size): following images alone closes an orbit,
    because a permutation of a finite set has its inverse among its powers."""
    remaining = set(range(size))
    orbits = []
    while remaining:
        seed = remaining.pop()
        orbit, frontier = {seed}, [seed]
        while frontier:
            x = frontier.pop()
            for p in maps:
                if p[x] in remaining:
                    remaining.remove(p[x])
                    orbit.add(p[x])
                    frontier.append(p[x])
        orbits.append(orbit)
    return orbits


def _ray_maps(f: Fan, group: Sequence[WeylElement]) -> list[tuple[int, ...]]:
    """Each group element as an index map on the fan's rays; an element that
    moves a ray off the ray set is refused, naming the first such ray."""
    rays = f.rays()
    index = {r: i for i, r in enumerate(rays)}
    n = len(group)
    flat = _primitivize([w.apply(r) for r in rays for w in group], f.lattice, f.maximal_cones[0]._lat)
    for i, r in enumerate(rays):
        if not all(img in index for img in flat[i * n:(i + 1) * n]):
            raise InvalidInput(f"group element moves ray {r} off the ray set")
    return [tuple(index[img] for img in flat[t::n]) for t in range(n)]


def ray_orbit_partition(s: ToricSurface, group: Iterable[WeylElement]) -> tuple[int, ...]:
    """Multiset of orbit sizes of the group acting on the rays."""
    maps = _ray_maps(s.fan, list(group))
    return tuple(sorted(len(o) for o in _orbits(len(s.rays()), maps)))


def invariant_picard_rank(
    basis_size: int,
    action: Sequence[Sequence[int]],
    relations: Sequence[Sequence[int]],
) -> int:
    """Rank over Q of the invariants of (Z^basis / relations) under a
    permutation action.

    The action must permute the basis and preserve the rational span of the
    relations; the rank is the dimension of the image of the averaging
    projector in the quotient, never more than the number of orbits.  The
    generators decide both: a group preserves the span when its generators
    do, and has their orbits.  So no group element beyond them is formed.
    """
    perms = []
    for p in action:
        p = tuple(int(x) for x in p)
        if sorted(p) != list(range(basis_size)):
            raise InvalidInput("action entries must be permutations of the basis")
        perms.append(p)
    if any(len(row) != basis_size for row in relations):
        raise InvalidInput("relation rows need one entry per basis element")

    rel_rows = qm(relations) if relations else ()
    rel_rank = rank(rel_rows) if rel_rows else 0
    permuted = [qv(row[p[i]] for i in range(basis_size)) for p in perms for row in rel_rows]
    if permuted and rank(qm(list(rel_rows) + permuted)) != rel_rank:
        raise InvalidInput("action does not preserve the relation span")

    orbits = _orbits(basis_size, perms)
    indicators = [qv(1 if i in orbit else 0 for i in range(basis_size)) for orbit in orbits]
    stacked = qm(list(indicators) + list(rel_rows))
    result = rank(stacked) - rel_rank
    if result > len(orbits):
        raise InvariantViolation("invariant rank exceeded the orbit count")
    return result


# --- anticanonical bookkeeping for surface blowups --------------------------


class SurfaceBlowupLedger(Record):
    """Boundary components with their anticanonical coefficients.

    Only incidence and coefficients are modeled: blowing up a point on the
    listed components appends an exceptional component whose coefficient is
    the sum of the ambient ones minus one, with existing coefficients kept
    (the strict-transform convention).
    """

    components: tuple[tuple[str, int], ...]
    history: tuple[tuple[str, tuple[str, ...], str], ...] = ()

    def coefficient(self, name: str) -> int:
        for n, c in self.components:
            if n == name:
                return c
        raise InvalidInput(f"no boundary component named {name!r}")

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.components)


def projective_plane_ledger() -> SurfaceBlowupLedger:
    """The plane with its boundary line: -K = 3H."""
    return SurfaceBlowupLedger(components=(("H", 3),))


def quadric_surface_ledger() -> SurfaceBlowupLedger:
    """The product of two lines: -K = 2H1 + 2H2."""
    return SurfaceBlowupLedger(components=(("H1", 2), ("H2", 2)))


def hirzebruch_ledger(k: int) -> SurfaceBlowupLedger:
    """The k-th rational ruled surface: -K = (k+2)H1 + 2H2."""
    if k < 1:
        raise InvalidInput("the ruled-surface ledger needs k >= 1")
    return SurfaceBlowupLedger(components=(("H1", k + 2), ("H2", 2)))


def blowup_boundary_point(
    ledger: SurfaceBlowupLedger,
    point_id: str,
    through: Iterable[str],
) -> SurfaceBlowupLedger:
    """Blow up a boundary point lying on the given components.

    The point may sit on one component or on a crossing of two; three or
    more would not be a simple normal crossing configuration.
    """
    through = tuple(sorted(set(through)))
    if not 1 <= len(through) <= 2:
        raise InvalidInput("a blowup point lies on one or two boundary components")
    names = ledger.names()
    for name in through:
        if name not in names:
            raise InvalidInput(f"unknown boundary component {name!r}")
    new_name = f"E{len(ledger.history) + 1}"
    while new_name in names:
        new_name = "E" + new_name
    coeff = sum(ledger.coefficient(n) for n in through) - 1
    return SurfaceBlowupLedger(
        components=ledger.components + ((new_name, coeff),),
        history=ledger.history + ((point_id, through, new_name),),
    )


class CoefficientSpectrum(Record):
    counts: tuple[tuple[int, int], ...]  # (coefficient, multiplicity), descending
    violations: tuple[tuple[str, int], ...]  # components with coefficient < 2


def coefficient_spectrum(ledger: SurfaceBlowupLedger) -> CoefficientSpectrum:
    """Distinct coefficients with multiplicities, flagging any below two."""
    tally: dict[int, int] = {}
    for _, c in ledger.components:
        tally[c] = tally.get(c, 0) + 1
    counts = tuple(sorted(tally.items(), reverse=True))
    violations = tuple((n, c) for n, c in ledger.components if c < 2)
    return CoefficientSpectrum(counts=counts, violations=violations)


# Which minimal rational surfaces admit additive-group compactification
# structures, with their boundary shapes.  Fixed reference data.
MINIMAL_SURFACE_STRUCTURES: tuple[dict, ...] = (
    {"surface": "P2", "structures": 2, "boundary": ("line",)},
    {"surface": "P1xP1", "structures": 1, "boundary": ("fiber", "fiber")},
    {"surface": "F_k, k>=1", "structures": 2, "boundary": ("fiber", "minimal section")},
)
