"""Colored cones and colored fans in the dual weight space.

Vectors here are written in fundamental-coweight coordinates, so the dual
weight lattice is the standard integer lattice: the i-th boundary divisor
maps to minus the i-th unit vector and the j-th color to the j-th column of
the Cartan matrix.  The valuation cone is the negative of the dominant
chamber.  Only the embeddings instantiated by group compactifications and
their contractions are modeled; colors are opaque symbols with a recorded
image in the lattice.  The colored faces of a top cone are answered from the
supports of the extreme rays of its valuation-weight cone, found once per
top, the top is checked from its own colored faces, and an extension is
checked from the largest source cone down.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Iterable, Mapping, Optional

from ._record import Record
from .errors import BoundExceeded, InvalidInput, InvariantViolation
from .linalg import (
    Matrix,
    Vector,
    _common_ints,
    _eliminate,
    _extreme_ray_supports,
    _int_mat_vec,
    _int_unit,
    _unit,
    primitive_direction,
    qm,
    smith_normal_form,
)
from .polyhedra import (
    RationalCone,
    _coordinate_support,
    _face,
    _face_subsets,
    _point_ints,
    _ray_keys,
    _rows_on_weights,
    _support,
    _text,
    cone,
    contains,
    covered_by,
    zero_cone,
)
from .rootsys import RootSystem, build_root_system, longest_element
from .lattice import LatticeVector, fundamental_weight, to_basis, vector


# the most faces a colored cone may have for its colored faces to be
# enumerated: a simplicial cone on k generators has 2^k faces, so this keeps
# every type up to rank 12 (E8 has 256)
MAX_COLORED_FACES = 2**12


def color_symbol(j: int) -> str:
    return f"D(w{j})"


def boundary_symbol(i: int) -> str:
    return f"D{i}"


def valuation_cone(rs: RootSystem) -> RationalCone:
    """The negative chamber cone spanned by the negated coweight basis
    vectors, which sort in index order and are primitive: their dual basis
    is -I over 1, so the cone is built with it and needs no solve."""
    n = rs.rank
    minus_identity = tuple(tuple(-x for x in _int_unit(n, i)) for i in range(n))
    return RationalCone(n, tuple(_unit(n, i, -1) for i in range(n)), _dual=(minus_identity, 1))


def coroot_coords(rs: RootSystem, j: int) -> Vector:
    """The j-th simple coroot in coweight coordinates: a Cartan column."""
    return tuple(rs.cartan[i][j - 1] for i in range(rs.rank))


def standard_rho_table(rs: RootSystem) -> dict[str, Vector]:
    table = {}
    for i in range(1, rs.rank + 1):
        table[boundary_symbol(i)] = _unit(rs.rank, i - 1, -1)
    for j in range(1, rs.rank + 1):
        table[color_symbol(j)] = coroot_coords(rs, j)
    return table


class ColoredCone(Record):
    cone: RationalCone
    colors: frozenset[str]

    def __init__(self, cone: RationalCone, colors: frozenset[str]):
        set_ = object.__setattr__
        set_(self, "cone", cone)
        set_(self, "colors", colors)

    def key(self):
        return (self.cone.gens, tuple(sorted(self.colors)))


class ColoredFan(Record):
    rank: int
    cones: tuple[ColoredCone, ...]
    valuation_cone: RationalCone
    rho_table: Mapping[str, Vector]
    colors: tuple[str, ...]  # the abstract color set of the open orbit
    boundary_names: Mapping[Vector, str]  # ray of the fan -> divisor symbol
    _names: Optional[tuple] = None  # (rays, each cone's indices into them), out of equality

    def __post_init__(self):
        # faces share their top's generator objects, so this hashes each ray once
        object.__setattr__(self, "_names", _ray_keys([cc.cone.gens for cc in self.cones]))

    def boundary_divisors(self) -> tuple[tuple[str, Vector], ...]:
        """(name, ray) of every ray of the fan; a ray without a boundary
        name is refused."""
        out = []
        for cc in self.cones:
            if cc.cone.dim == 1:
                ray = cc.cone.gens[0]
                if ray not in self.boundary_names:
                    raise InvalidInput(f"ray {_text(ray)} has no boundary divisor name")
                out.append((self.boundary_names[ray], ray))
        return tuple(sorted(set(out)))


def _relint_meets_valuation(c: RationalCone, vcone: RationalCone) -> bool:
    """Exact test of the cone's relative interior meeting the valuation cone:
    the cone's generator weights, each at least 1, give a point on which the
    valuation cone's span equations vanish and its facets are at least 0,
    all read on the weights up to a positive scale, which keeps the answer.
    A zero cone leaves no weights, only the origin, a valuation-cone point.
    Cones of different ambient dimensions are refused, as `contains` does."""
    if c.ambient_dim != vcone.ambient_dim:
        raise InvalidInput("dimension mismatch in cone membership")
    k, facets = len(c.gens), len(vcone.gens)
    rows = _rows_on_weights(vcone, c.gens)
    eqs = [(row, 0) for row in rows[facets:]]
    ineqs = [(_int_unit(k, i), 1) for i in range(k)] + [(row, 0) for row in rows[:facets]]
    return _eliminate(k, eqs, ineqs)


def _check_face_bound(dim: int) -> None:
    if 2 ** min(dim, 64) > MAX_COLORED_FACES:  # min: no huge power for a huge rank
        raise BoundExceeded(
            f"a {dim}-dimensional colored cone has 2^{dim} faces, above the bound {MAX_COLORED_FACES}"
        )


def _colored_faces(top: ColoredCone, vcone: RationalCone, rho: Mapping[str, Vector]):
    """All colored faces of a colored cone: faces meeting the valuation cone,
    each carrying the colors whose image lands inside it, and each with its
    generator index subset of the top cone.

    Let P be the generator weights w >= 0 whose point sum w_i g_i lies in the
    valuation cone.  The face on a subset S meets it in its relative interior
    exactly when a point of P has support S.  Points of P cancel no
    coordinate, so their supports are the unions of the supports of P's
    extreme rays, found once per top (`_extreme_ray_supports`), as bitmasks
    of generator indices.  Should the ray list pass ``MAX_COLORED_FACES``,
    each face is asked `_relint_meets_valuation` instead.  A color lands in
    the face on S exactly when it lies in the top with its coordinates in
    the generators supported in S, so each color's coordinates are read
    once.  A top of another ambient dimension than the valuation cone, and
    then one with more than ``MAX_COLORED_FACES`` faces (BoundExceeded), are
    refused before any work; an invalid top gets its faces all the same.
    """
    c = top.cone
    if c.ambient_dim != vcone.ambient_dim:
        raise InvalidInput("dimension mismatch in cone membership")
    _check_face_bound(c.dim)
    rows = _rows_on_weights(vcone, c.gens)
    rays = _extreme_ray_supports(c.dim, rows[vcone.dim :], rows[: vcone.dim], MAX_COLORED_FACES)
    if rays is None:
        supports = {_mask(s) for s in _face_subsets(c.dim) if _relint_meets_valuation(_face(c, s), vcone)}
    else:
        supports = {0}
        for r in rays:
            supports |= {u | r for u in supports}
    colors = [(d, _coordinate_support(c, rho[d])) for d in top.colors]
    out = []
    for subset in _face_subsets(c.dim):
        s = _mask(subset)
        if s in supports:
            kept = frozenset(d for d, m in colors if m is not None and m | s == s)
            out.append((subset, ColoredCone(cone=_face(c, subset), colors=kept)))
    return out


def _mask(subset: Iterable[int]) -> int:
    return sum(1 << i for i in subset)


def colored_fan_from_top(
    rs: RootSystem,
    top: ColoredCone,
    boundary_names: Optional[Mapping[Vector, str]] = None,
) -> ColoredFan:
    """The colored faces of one colored cone, whose relative interiors are
    disjoint, ordered by generator index subset of the top: as their
    generator tuples, because `cone` sorts the top's generators.  The top is
    checked from them: its face on every generator is there exactly when its
    relative interior meets the valuation cone, and carries exactly the
    colors inside it; a generator's own face is there exactly when it lies
    in the valuation cone."""
    rho = standard_rho_table(rs)
    vcone = valuation_cone(rs)
    for d in top.colors:
        if d not in rho:
            raise InvalidInput(f"color {d!r} has no recorded lattice image")
    faces = dict(_colored_faces(top, vcone, rho))
    whole = faces.get(tuple(range(top.cone.dim)))
    for d in top.colors:
        if whole is not None and d not in whole.colors:
            raise InvalidInput(f"color {d!r} maps outside its colored cone")
    color_rays = {primitive_direction(rho[d]) for d in top.colors}
    for i, g in enumerate(top.cone.gens):
        if (i,) not in faces and primitive_direction(g) not in color_rays:
            raise InvalidInput(f"generator {g} is neither a valuation-cone element nor a color image")
    if whole is None:
        raise InvalidInput("colored cone has no interior valuation point")
    cones = tuple(cc for _, cc in sorted(faces.items()))
    names = dict(boundary_names or {})
    for cc in cones:
        if cc.cone.dim == 1:
            ray = cc.cone.gens[0]
            if ray not in names:
                match = next(
                    (s for s, v in rho.items() if v == ray and not s.startswith("D(w")),
                    None,
                )
                names[ray] = match if match is not None else f"B{len(names) + 1}"
    return ColoredFan(
        rank=rs.rank,
        cones=cones,
        valuation_cone=vcone,
        rho_table=rho,
        colors=tuple(color_symbol(j) for j in range(1, rs.rank + 1)),
        boundary_names=names,
    )


def wonderful_colored_fan(rs: RootSystem) -> ColoredFan:
    """The colored fan of the wonderful compactification: every colored face
    of the pair (valuation cone, no colors)."""
    top = ColoredCone(cone=valuation_cone(rs), colors=frozenset())
    return colored_fan_from_top(rs, top)


def chain_cone(rs: RootSystem, k: int) -> ColoredCone:
    """The k-th colored cone of the quotient-variety fan in type C."""
    gens = [_unit(rs.rank, 0, -1)]
    colors = []
    for j in range(1, k):
        gens.append(coroot_coords(rs, j))
        colors.append(color_symbol(j))
    return ColoredCone(cone=cone(gens, ambient_dim=rs.rank), colors=frozenset(colors))


def z_colored_fan(n: int) -> ColoredFan:
    """Colored fan of the involution quotient of the doubled Lagrangian
    Grassmannian: a chain of colored cones over type C."""
    if n < 2:
        raise InvalidInput("the quotient fan needs rank at least 2")
    _check_face_bound(n)
    rs = build_root_system(f"C{n}")
    top = chain_cone(rs, n)
    f = colored_fan_from_top(rs, top, boundary_names={_unit(n, 0, -1): "Z1"})
    expected = {chain_cone(rs, k).key() for k in range(1, n + 1)}
    expected.add((zero_cone(n).gens, ()))
    if {cc.key() for cc in f.cones} != expected:
        raise InvariantViolation("quotient fan is not the expected chain of colored cones")
    return f


def blowup_chain_fans(n: int) -> list[ColoredFan]:
    """The colored fans of the successive contractions from the wonderful
    compactification of type C down to the involution quotient.

    The i-th fan is generated by the cone on the first i coroot columns,
    minus the first coweight, and the negated coweights past position i+1.
    """
    if n < 2:
        raise InvalidInput("the contraction chain needs rank at least 2")
    _check_face_bound(n)
    rs = build_root_system(f"C{n}")
    fans = []
    for i in range(n):
        gens = [coroot_coords(rs, j) for j in range(1, i + 1)]
        gens.append(_unit(n, 0, -1))
        gens += [_unit(n, t, -1) for t in range(i + 1, n)]
        colors = frozenset(color_symbol(j) for j in range(1, i + 1))
        top = ColoredCone(cone=cone(gens, ambient_dim=n), colors=colors)
        fans.append(colored_fan_from_top(rs, top))
    return fans


def extends_to_morphism(
    source: ColoredFan,
    target: ColoredFan,
    lattice_map: Optional[Matrix] = None,
    dominant_colors: Iterable[str] = (),
) -> bool:
    """Whether the identity on the open orbit extends equivariantly.

    True exactly when every source colored cone maps into some target
    colored cone whose colors absorb the non-dominant source colors.  Source
    cones are visited largest first, and one whose generators and colors lie
    among those of a cone already mapped is skipped: its image lies in the
    same target cone, whose colors absorb its colors too (Knop, The
    Luna-Vust theory of spherical embeddings, 1991, section 4).  Generators
    are compared as indices into the source's rays, each ray mapped and
    scaled to integers once.  The ambient dimensions are checked before any
    cone is read, so no visiting order changes the answer.
    """
    dominant = frozenset(dominant_colors)
    if lattice_map is not None:
        if len(lattice_map) != target.rank or any(len(row) != source.rank for row in lattice_map):
            raise InvalidInput(f"lattice map must be {target.rank} rows of length {source.rank}")
    rays, keys = source._names
    image_dims = {len(r) if lattice_map is None else len(lattice_map) for r in rays}
    if image_dims and len(image_dims | {tc.cone.ambient_dim for tc in target.cones}) > 1:
        raise InvalidInput("dimension mismatch in cone membership")
    # a positive multiple of each image: membership is scale-invariant
    if lattice_map is None:
        points = [_point_ints(r) for r in rays]
    else:
        rows, _ = _common_ints(qm(lattice_map))
        points = [_int_mat_vec(rows, 1, r)[0] for r in rays]

    mapped: list[tuple[frozenset, frozenset]] = []
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


def is_complete_embedding(f: ColoredFan) -> bool:
    """Whether the valuation cone is covered by the fan's cones."""
    return covered_by(f.valuation_cone, [cc.cone for cc in f.cones])


class OrbitPoset(Record):
    nodes: tuple[ColoredCone, ...]
    less_equal: tuple[tuple[bool, ...], ...]  # le[i][j]: node i is a colored face of node j


def orbit_poset(f: ColoredFan) -> OrbitPoset:
    """The colored cones ordered by the colored-face relation: a lies below
    b when a's generators are among b's, a's relative interior meets the
    valuation cone, and a carries exactly the colors of b that land in it.

    Generators are compared as index sets into the fan's rays, and the
    valuation test reads a alone, so it runs once per cone, not per pair.
    """
    nodes, rho = f.cones, f.rho_table
    gens = [frozenset(key) for key in f._names[1]]
    meets = [_relint_meets_valuation(cc.cone, f.valuation_cone) for cc in nodes]
    le = tuple(
        tuple(
            gens[i] <= gens[j]
            and meets[i]
            and a.colors == frozenset(d for d in b.colors if contains(a.cone, rho[d]))
            for j, b in enumerate(nodes)
        )
        for i, a in enumerate(nodes)
    )
    return OrbitPoset(nodes=nodes, less_equal=le)


def closed_orbit_restriction(rs: RootSystem, k: int) -> tuple[LatticeVector, LatticeVector]:
    """The weight pair (-w0 . omega_k, omega_k) on the closed orbit."""
    if not 1 <= k <= rs.rank:
        raise InvalidInput(f"weight index {k} out of range for {rs.label}")
    w0 = longest_element(rs)
    omega = fundamental_weight(rs, k)
    left = vector(rs, [-x for x in w0.apply(omega.ambient())])
    return to_basis(left, "fund_weight"), to_basis(omega, "fund_weight")


# --- Picard presentations ----------------------------------------------------


class DivisorLedger(Record):
    """Named prime-divisor symbols with one integer relation row per weight."""

    symbols: tuple[str, ...]
    relations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.relations:
            if len(row) != len(self.symbols):
                raise InvalidInput("relation length must match the symbol count")


class PicardPresentation(Record):
    free_rank: int
    torsion: tuple[int, ...]
    classes: Mapping[str, tuple]


def picard_presentation(ledger: DivisorLedger) -> PicardPresentation:
    """Cokernel of the relation matrix over the integers, with the image of
    every divisor symbol in invariant-factor coordinates."""
    s = len(ledger.symbols)
    if not ledger.relations:
        return PicardPresentation(
            free_rank=s,
            torsion=(),
            classes={sym: tuple([1 if i == j else 0 for i in range(s)]) for j, sym in enumerate(ledger.symbols)},
        )
    diag, t_inv = smith_normal_form([list(r) for r in ledger.relations])
    r = sum(1 for d in diag if d != 0)
    torsion_positions = [i for i in range(r) if diag[i] > 1]
    free_positions = list(range(r, s))
    raw = {}
    for j, sym in enumerate(ledger.symbols):
        coords = [t_inv[j][i] for i in range(s)]
        tor = tuple(coords[i] % diag[i] for i in torsion_positions)
        free = [coords[i] for i in free_positions]
        raw[sym] = (tor, free)
    # orient each free coordinate so the first symbol carrying it is positive
    for p in range(len(free_positions)):
        lead = next((raw[sym][1][p] for sym in ledger.symbols if raw[sym][1][p] != 0), 0)
        if lead < 0:
            for sym in ledger.symbols:
                raw[sym][1][p] = -raw[sym][1][p]
    classes = {sym: tor + tuple(free) for sym, (tor, free) in raw.items()}
    return PicardPresentation(
        free_rank=s - r,
        torsion=tuple(diag[i] for i in torsion_positions),
        classes=classes,
    )


def wonderful_divisor_ledger(rs: RootSystem) -> DivisorLedger:
    """Boundary divisors and colors of the wonderful compactification with
    the relations cut out by the simple roots."""
    n = rs.rank
    symbols = tuple(boundary_symbol(i) for i in range(1, n + 1)) + tuple(
        color_symbol(j) for j in range(1, n + 1)
    )
    rows = []
    for k in range(n):
        row = [-1 if i == k else 0 for i in range(n)]
        row += [int(rs.cartan[k][j]) for j in range(n)]
        rows.append(tuple(row))
    return DivisorLedger(symbols=symbols, relations=tuple(rows))


def spinor_divisor_ledger(rs: RootSystem) -> DivisorLedger:
    """The divisor ledger of the odd-rank spinor variety: one hyperplane
    symbol and the colors, with Cartan-pairing relation rows."""
    if rs.family != "B":
        raise InvalidInput("the spinor ledger is a type-B construction")
    n = rs.rank
    symbols = ("OG(1)",) + tuple(color_symbol(j) for j in range(1, n + 1))
    rows = []
    for k in range(n):
        row = [-1 if k == 0 else 0]
        row += [int(rs.cartan[k][j]) for j in range(n)]
        rows.append(tuple(row))
    return DivisorLedger(symbols=symbols, relations=tuple(rows))


class FormalDivisor(Record):
    terms: tuple[tuple[str, int], ...]

    def coefficient(self, symbol: str) -> int:
        for s, c in self.terms:
            if s == symbol:
                return c
        return 0


def anticanonical_divisor(f: ColoredFan, m_table: Mapping[str, int]) -> FormalDivisor:
    """The anticanonical divisor: color coefficients from the table, plus
    every boundary prime divisor once."""
    terms = []
    for d in f.colors:
        if d not in m_table:
            raise InvalidInput(f"missing anticanonical coefficient for color {d!r}")
        terms.append((d, int(m_table[d])))
    for name, _ray in f.boundary_divisors():
        terms.append((name, 1))
    return FormalDivisor(terms=tuple(terms))


def wonderful_anticanonical_divisor(rs: RootSystem) -> FormalDivisor:
    """Twice every color plus every boundary divisor."""
    f = wonderful_colored_fan(rs)
    return anticanonical_divisor(f, {d: 2 for d in f.colors})


def divisor_weight(rs: RootSystem, divisor: FormalDivisor) -> LatticeVector:
    """Weight-lattice image of a formal divisor on the wonderful
    compactification, where boundary divisors are simple roots and colors
    are fundamental weights."""
    coords = [Q(0)] * rs.rank
    for symbol, coeff in divisor.terms:
        if symbol.startswith("D(w"):
            j = int(symbol[3:-1])
            coords[j - 1] += coeff
        elif symbol.startswith("D"):
            i = int(symbol[1:])
            for t in range(rs.rank):
                coords[t] += coeff * rs.cartan[i - 1][t]
        else:
            raise InvalidInput(f"symbol {symbol!r} has no weight on this variety")
    return vector(rs, coords, "fund_weight")
