"""Weight, root and coweight lattice arithmetic.

A LatticeVector is an exact rational coordinate tuple tagged with the basis
it is written in; it also keeps those coordinates as integers over one
denominator, a cache out of its value (`_record`): a converted vector is
handed the integers of its change.  Each change of basis is one integer
matrix over one denominator per (source, target) pair, held on the root
system and filled on first use.  Into the ambient model it
is the transposed basis rows.  Out of it, it is the dual basis the root
system already holds (the simple coroots for fundamental-weight
coordinates, the fundamental weights for simple-coroot ones, the simple
roots for fundamental-coweight ones), and for simple-root coordinates the
dual rows of the simple roots, from one elimination per type; the span
equations of that elimination, below the dual rows of every target, reject
vectors off the root span.  Between two bases it is the target's dual rows
times the source rows, with no ambient round trip.  A change reads and
hands on the vectors' integers, so no coordinate is rescaled to integers
twice.  The Cartan pairing is the standard inner product of ambient
coordinates.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from operator import mul
from typing import Sequence

from ._record import Record, cached, keep
from .errors import BasisChangeError, InvalidInput
from .linalg import (
    Matrix,
    Vector,
    _common_ints,
    _dual_rows,
    _row_scale,
    _scaled_ints,
    det,
    is_zero_vector,
    qv,
)
from .rootsys import RootSystem

BASIS_TAGS = ("ambient", "simple_root", "fund_weight", "simple_coroot", "fund_coweight")


def _basis_rows(rs: RootSystem, tag: str) -> Matrix:
    if tag == "simple_root":
        return rs.simple_roots
    if tag == "fund_weight":
        return rs.fundamental_weights
    if tag == "simple_coroot":
        return rs.simple_coroots
    if tag == "fund_coweight":
        return rs.fundamental_coweights
    raise InvalidInput(f"unknown basis tag {tag!r}")


# the basis whose rows are dual to each target basis on the root span; the
# simple roots' dual rows come from their own elimination, with the span
# equations
_DUAL_BASIS = {"fund_weight": "simple_coroot", "simple_coroot": "fund_weight", "fund_coweight": "simple_root"}


class LatticeVector(Record):
    rs: RootSystem
    basis: str
    coords: Vector
    # the coordinates as integers over one denominator d > 0, (ints, d)
    _ints: tuple = cached(lambda v: (_scaled_ints(v.coords, s := _row_scale(v.coords)), s))

    def __init__(self, rs: RootSystem, basis: str, coords: Vector, *, _ints=None):
        if basis not in BASIS_TAGS:
            raise InvalidInput(f"unknown basis tag {basis!r}")
        expected = rs.ambient_dim if basis == "ambient" else rs.rank
        if len(coords) != expected:
            raise InvalidInput(f"{basis} coordinates for {rs.label} must have length {expected}")
        set_ = object.__setattr__
        set_(self, "rs", rs)
        set_(self, "basis", basis)
        set_(self, "coords", qv(coords))
        if _ints is not None:
            keep(self, "_ints", _ints)

    def ambient(self) -> Vector:
        return to_basis(self, "ambient").coords


def _change(rs: RootSystem, source: str, target: str) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows N and one denominator d > 0 taking source coordinates c
    to target coordinates N c / d; out of the ambient model, the rows past
    the rank vanish exactly on the root span."""
    key = (source, target)
    change = rs._basis_changes.get(key)
    if change is not None:
        return change
    if target == "ambient":
        ints, s = _common_ints(_basis_rows(rs, source))
        change = tuple(zip(*ints)), s
    elif source != "ambient":
        cols, s = _change(rs, source, "ambient")
        dual, d = _change(rs, "ambient", target)
        product = [[sum(map(mul, row, b)) for b in zip(*cols)] for row in dual[: rs.rank]]
        g = gcd(d * s, *(x for row in product for x in row))
        change = tuple(tuple(x // g for x in row) for row in product), d * s // g
    elif target == "simple_root":
        change = _dual_rows(rs.simple_roots, rs.ambient_dim)
    else:
        # the dual basis: the columns of its own change into the ambient model
        cols, d = _change(rs, _DUAL_BASIS[target], "ambient")
        change = (*zip(*cols), *_change(rs, "ambient", "simple_root")[0][rs.rank :]), d
    rs._basis_changes[key] = change
    return change


def _convert(v: LatticeVector, target: str) -> tuple[list[int], int]:
    """The coordinates of v in the target basis as integers over one
    denominator; off the root span an ambient vector raises BasisChangeError."""
    rows, d = _change(v.rs, v.basis, target)
    ints, s = v._ints
    dots = [sum(map(mul, row, ints)) for row in rows]
    k = v.rs.ambient_dim if target == "ambient" else v.rs.rank
    if any(dots[k:]):
        raise BasisChangeError(
            f"vector {v.coords} of {v.rs.label} lies outside the span of the {target} basis"
        )
    return dots[:k], d * s


def vector(rs: RootSystem, coords: Sequence, basis: str = "ambient") -> LatticeVector:
    return LatticeVector(rs, basis, qv(coords))


def simple_root(rs: RootSystem, i: int) -> LatticeVector:
    if not 1 <= i <= rs.rank:
        raise InvalidInput(f"simple root index {i} out of range for {rs.label}")
    return LatticeVector(rs, "ambient", rs.simple_roots[i - 1])


def simple_coroot(rs: RootSystem, i: int) -> LatticeVector:
    if not 1 <= i <= rs.rank:
        raise InvalidInput(f"simple coroot index {i} out of range for {rs.label}")
    return LatticeVector(rs, "ambient", rs.simple_coroots[i - 1])


def fundamental_weight(rs: RootSystem, i: int) -> LatticeVector:
    if not 1 <= i <= rs.rank:
        raise InvalidInput(f"weight index {i} out of range for {rs.label}")
    return LatticeVector(rs, "ambient", rs.fundamental_weights[i - 1])


def rho(rs: RootSystem) -> LatticeVector:
    return LatticeVector(rs, "ambient", rs.rho)


def highest_coroot(rs: RootSystem) -> LatticeVector:
    """The coroot 2 theta / (theta, theta) of the highest root theta."""
    return LatticeVector(rs, "ambient", rs.coroot(rs.highest_root))


def cartan_matrix(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The integer matrix <alpha_i, alpha_j^vee>; its determinant is positive."""
    return tuple(tuple(int(x) for x in row) for row in rs.cartan)


def to_basis(v: LatticeVector, target_tag: str) -> LatticeVector:
    """Rewrite the same ambient vector in another basis, or reject it.

    Bases other than the ambient one only span the root span, so an ambient
    vector with a component off that span has no expression and is refused.
    """
    if target_tag not in BASIS_TAGS:
        raise InvalidInput(f"unknown basis tag {target_tag!r}")
    if target_tag == v.basis:
        return v
    dots, den = _convert(v, target_tag)
    return LatticeVector(v.rs, target_tag, tuple(Q(x, den) for x in dots), _ints=(dots, den))


def pair(weight_side: LatticeVector, coweight_side: LatticeVector) -> Q:
    """Exact Cartan pairing <lambda, mu^vee>, computed in the ambient model."""
    if weight_side.rs.label != coweight_side.rs.label:
        raise InvalidInput(
            f"cannot pair vectors from {weight_side.rs.label} and {coweight_side.rs.label}"
        )
    a, da = _ambient_ints(weight_side)
    b, db = _ambient_ints(coweight_side)
    return Q(sum(map(mul, a, b)), da * db)


def _ambient_ints(v: LatticeVector) -> tuple[list[int], int]:
    """The ambient coordinates of v as integers over one denominator."""
    return v._ints if v.basis == "ambient" else _convert(v, "ambient")


def weight_root_index(rs: RootSystem) -> int:
    """Index of the root lattice inside the weight lattice."""
    return abs(int(det(rs.cartan)))


def is_primitive_in_weight_lattice(v: LatticeVector) -> bool:
    """True when the gcd of the fundamental-weight coordinates is 1.

    The zero vector returns False by convention, keeping the predicate total
    for sweeps over divisor tables.
    """
    coords = to_basis(v, "fund_weight").coords
    if any(c.denominator != 1 for c in coords):
        raise InvalidInput("vector does not lie in the weight lattice")
    if is_zero_vector(coords):
        return False
    g = 0
    for c in coords:
        g = gcd(g, abs(int(c)))
    return g == 1


def minimal_curve_degree(weight: LatticeVector) -> Q:
    """Degree of the minimal rational curve class against the line bundle of a weight.

    This is the pairing with the coroot of the highest root.
    """
    return pair(weight, highest_coroot(weight.rs))


def anticanonical_weight(rs: RootSystem) -> LatticeVector:
    """The weight 2*rho + sum of simple roots, certified regular dominant."""
    amb = tuple(2 * r + sum(col) for r, col in zip(rs.rho, zip(*rs.simple_roots)))
    out = LatticeVector(rs, "ambient", amb)
    for j in range(1, rs.rank + 1):
        if pair(out, simple_coroot(rs, j)) <= 0:
            raise InvalidInput(f"anticanonical weight of {rs.label} is not regular dominant")
    return to_basis(out, "fund_weight")
