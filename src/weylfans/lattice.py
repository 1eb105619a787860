"""Weight, root and coweight lattice arithmetic.

A LatticeVector is an exact rational coordinate tuple tagged with the basis
it is written in.  All conversions route through the ambient model, where
the Cartan pairing is literally the standard inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import Sequence

from .errors import BasisChangeError, InvalidInput
from .linalg import (
    Matrix,
    Vector,
    coords_in_basis,
    dot,
    is_zero_vector,
    mat_vec,
    qv,
    transpose,
    vadd,
    vscale,
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


@dataclass(frozen=True)
class LatticeVector:
    rs: RootSystem
    basis: str
    coords: Vector

    def __post_init__(self):
        if self.basis not in BASIS_TAGS:
            raise InvalidInput(f"unknown basis tag {self.basis!r}")
        expected = self.rs.ambient_dim if self.basis == "ambient" else self.rs.rank
        if len(self.coords) != expected:
            raise InvalidInput(
                f"{self.basis} coordinates for {self.rs.label} must have length {expected}"
            )
        object.__setattr__(self, "coords", qv(self.coords))

    def ambient(self) -> Vector:
        if self.basis == "ambient":
            return self.coords
        return mat_vec(transpose(_basis_rows(self.rs, self.basis)), self.coords)


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


def fundamental_coweight(rs: RootSystem, i: int) -> LatticeVector:
    if not 1 <= i <= rs.rank:
        raise InvalidInput(f"coweight index {i} out of range for {rs.label}")
    return LatticeVector(rs, "ambient", rs.fundamental_coweights[i - 1])


def rho(rs: RootSystem) -> LatticeVector:
    return LatticeVector(rs, "ambient", rs.rho)


def highest_coroot(rs: RootSystem) -> LatticeVector:
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
    amb = v.ambient()
    if target_tag == "ambient":
        return LatticeVector(v.rs, "ambient", amb)
    coords = coords_in_basis(_basis_rows(v.rs, target_tag), amb)
    if coords is None:
        raise BasisChangeError(
            f"vector {amb} of {v.rs.label} lies outside the span of the {target_tag} basis"
        )
    return LatticeVector(v.rs, target_tag, coords)


def pair(weight_side: LatticeVector, coweight_side: LatticeVector) -> Q:
    """Exact Cartan pairing <lambda, mu^vee>, computed in the ambient model."""
    if weight_side.rs.label != coweight_side.rs.label:
        raise InvalidInput(
            f"cannot pair vectors from {weight_side.rs.label} and {coweight_side.rs.label}"
        )
    return dot(weight_side.ambient(), coweight_side.ambient())


def weight_root_index(rs: RootSystem) -> int:
    """Index of the root lattice inside the weight lattice."""
    from .linalg import det

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
    amb = vscale(2, rs.rho)
    for a in rs.simple_roots:
        amb = vadd(amb, a)
    out = LatticeVector(rs, "ambient", amb)
    for j in range(1, rs.rank + 1):
        if pair(out, simple_coroot(rs, j)) <= 0:
            raise InvalidInput(f"anticanonical weight of {rs.label} is not regular dominant")
    return to_basis(out, "fund_weight")
