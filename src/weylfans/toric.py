"""Complete smooth toric surfaces from Weyl-group data, and the boundary
bookkeeping used for anticanonical divisors of surface blowups.

Chamber fans live in the coweight lattice of their root system; subtorus
closure fans live in a two-dimensional plane of coweights, with rays stored
primitive in the plane's saturated integer lattice; the cones' own lattice
check is the check that the group stabilizes the plane.  Ray orbits and the
invariant Picard rank are read off the group's generators as index maps,
through one orbit search.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Optional, Sequence

from ._record import Record
from .errors import InvalidInput, InvariantViolation
from .linalg import Vector, _dual_rows, qm, qv, rank, saturation_basis
from .polyhedra import Fan, RationalCone, cone, fan, is_complete, is_smooth, _primitivize
from .rootsys import RootSystem, WeylElement, weyl_enumerate, weyl_order


def weyl_chamber_fan(rs: RootSystem, bound: int = 2000) -> Fan:
    """The fan of Weyl chambers and their faces, in the coweight lattice.

    Maximal cones are the group translates of the dominant chamber; the
    result is verified complete with exactly one cone per group element.
    """
    group = weyl_enumerate(rs, bound=bound)
    lattice = qm(rs.fundamental_coweights)
    k = len(lattice)
    # one solve of the coweight lattice gives every cone's lattice rows and,
    # permuted to the sorted basis, the dominant chamber's dual basis
    lat = _dual_rows(lattice, rs.ambient_dim)
    order = sorted(range(k), key=lattice.__getitem__)
    base = [lattice[i] for i in order]
    base_rows = [lat[0][i] for i in order] + list(lat[0][k:])
    cones = []
    for w in group:
        # W permutes the coweight lattice, so each translate of the basis is
        # again a basis, primitive and independent.  w is orthogonal, so the
        # rows w r of the chamber's rows r, over d * den(w), read coordinates
        # in the translated generators and vanish on their span: a positive
        # multiple of their own solve's rows on the span, facet rows reordered
        # to match the sorted generators
        images = [w.apply(g) for g in base]
        perm = sorted(range(k), key=images.__getitem__)
        rows = [tuple(sum(map(mul, wrow, r)) for wrow in w._rows) for r in base_rows]
        dual = (tuple(rows[i] for i in perm) + tuple(rows[k:]), lat[1] * w._den)
        cones.append(RationalCone(rs.ambient_dim, tuple(images[i] for i in perm), lattice, _dual=dual, _lat=lat))
    result = fan(cones)
    if len(result.maximal_cones) != weyl_order(rs):
        raise InvariantViolation(
            f"chamber fan of {rs.label} has {len(result.maximal_cones)} cones, "
            f"expected {weyl_order(rs)}"
        )
    if not is_complete(result):
        raise InvariantViolation(f"chamber fan of {rs.label} is not complete")
    return result


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
