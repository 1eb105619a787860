"""Simple root systems in exact coordinates, and their Weyl groups.

Each bundled type comes with an explicit rational coordinate model: the
classical families use the usual orthonormal models, G2 lives in the
sum-zero plane of Q^3, F4 in Q^4, and E6/E7/E8 inside the even/half-integer
model of Q^8.  All derived data (roots, Cartan matrix, fundamental weights
and coweights, the highest root) is computed once at construction time and
frozen, so instances are immutable and safe to share between threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Iterable, Optional, Sequence

from .errors import BoundExceeded, InvalidInput, InvariantViolation
from .linalg import (
    Matrix,
    Vector,
    _unit,
    det,
    dot,
    identity_matrix,
    inverse,
    mat_mul,
    mat_vec,
    qm,
    qv,
    transpose,
    vadd,
    vneg,
    vscale,
    vsub,
)

FAMILIES = "ABCDEFG"


def _simple_root_model(family: str, n: int) -> tuple[int, Matrix]:
    """Ambient dimension and simple roots for a simple type, Bourbaki order."""
    if family == "A" and n >= 1:
        dim = n + 1
        return dim, tuple(vsub(_unit(dim, i), _unit(dim, i + 1)) for i in range(n))
    if family == "B" and n >= 2:
        roots = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        roots.append(_unit(n, n - 1))
        return n, tuple(roots)
    if family == "C" and n >= 2:
        roots = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        roots.append(_unit(n, n - 1, 2))
        return n, tuple(roots)
    if family == "D" and n >= 4:
        roots = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        roots.append(vadd(_unit(n, n - 2), _unit(n, n - 1)))
        return n, tuple(roots)
    if family == "E" and n in (6, 7, 8):
        half = Q(1, 2)
        alpha1 = tuple([half, half] + [-half] * 6)
        alpha2 = vadd(_unit(8, 1), _unit(8, 2))
        chain = [vsub(_unit(8, k), _unit(8, k - 1)) for k in range(2, 8)]
        roots = [alpha1, alpha2] + chain
        return 8, tuple(roots[:n])
    if family == "F" and n == 4:
        half = Q(1, 2)
        return 4, (
            vsub(_unit(4, 0), _unit(4, 1)),
            vsub(_unit(4, 1), _unit(4, 2)),
            _unit(4, 2),
            (-half, -half, -half, half),
        )
    if family == "G" and n == 2:
        return 3, (
            (Q(1), Q(-1), Q(0)),
            (Q(-1), Q(2), Q(-1)),
        )
    raise InvalidInput(f"no simple root system of type {family}{n}")


def parse_label(label: str) -> tuple[str, int]:
    label = label.strip().upper()
    if len(label) < 2 or label[0] not in FAMILIES or not label[1:].isdigit():
        raise InvalidInput(f"cannot parse root system label {label!r}")
    return label[0], int(label[1:])


def _coroot(beta: Vector) -> Vector:
    return vscale(Q(2) / dot(beta, beta), beta)


@dataclass(frozen=True)
class RootSystem:
    """A simple root system with all derived lattice data precomputed."""

    label: str
    family: str
    rank: int
    ambient_dim: int
    simple_roots: Matrix
    roots: tuple[Vector, ...]
    cartan: Matrix
    cartan_inverse: Matrix
    fundamental_weights: Matrix
    simple_coroots: Matrix
    fundamental_coweights: Matrix
    highest_root: Vector
    rho: Vector
    _simple_coords: dict = field(repr=False, hash=False, compare=False)

    def simple_root_coords(self, beta: Vector) -> Vector:
        """Coordinates of a root in the simple-root basis, always integral."""
        try:
            return self._simple_coords[beta]
        except KeyError:
            raise InvalidInput(f"{beta} is not a root of {self.label}") from None

    def height(self, beta: Vector) -> Q:
        return sum(self.simple_root_coords(beta), Q(0))

    def positive_root_vectors(self) -> list[Vector]:
        # ties inside one height level break toward lower simple-root indices
        pos = [b for b in self.roots if self.height(b) > 0]
        pos.sort(key=lambda b: (self.height(b), vneg(self.simple_root_coords(b))))
        return pos

    def coroot(self, beta: Vector) -> Vector:
        return _coroot(beta)

    def reflection_matrix(self, i: int) -> Matrix:
        """Matrix of the reflection in the i-th simple root (0-based)."""
        alpha = self.simple_roots[i]
        alpha_v = _coroot(alpha)
        cols = []
        for j in range(self.ambient_dim):
            e = _unit(self.ambient_dim, j)
            cols.append(vsub(e, vscale(dot(e, alpha_v), alpha)))
        return transpose(qm(cols))


_CACHE: dict[str, RootSystem] = {}


def build_root_system(type_label: str) -> RootSystem:
    """Construct (and cache) the root system for a label such as "B3" or "E8"."""
    family, n = parse_label(type_label)
    label = f"{family}{n}"
    if label in _CACHE:
        return _CACHE[label]
    dim, simple = _simple_root_model(family, n)

    # Cartan matrix A[i][j] = <alpha_i, alpha_j^vee> = 2(a_i, a_j)/(a_j, a_j)
    cartan = tuple(
        tuple(Q(2) * dot(a, b) / dot(b, b) for b in simple) for a in simple
    )
    for i, row in enumerate(cartan):
        for j, x in enumerate(row):
            if x.denominator != 1:
                raise InvariantViolation(f"non-integral Cartan entry in {label}")
            if i == j and x != 2:
                raise InvariantViolation(f"Cartan diagonal is not 2 in {label}")
            if i != j and x > 0:
                raise InvariantViolation(f"positive off-diagonal Cartan entry in {label}")
    gram = tuple(tuple(dot(a, b) for b in simple) for a in simple)
    for k in range(1, n + 1):
        if det(tuple(row[:k] for row in gram[:k])) <= 0:
            raise InvariantViolation(f"symmetrized Cartan form not positive definite in {label}")

    # close the simple roots under simple reflections to get the full root
    # set; s_i sends beta to beta - k alpha_i, so its simple-root coordinates
    # are beta's with k subtracted in slot i
    coroots = tuple(_coroot(a) for a in simple)
    simple_coords = {a: _unit(n, i) for i, a in enumerate(simple)}
    queue = list(simple)
    while queue:
        beta = queue.pop()
        for i, (a, av) in enumerate(zip(simple, coroots)):
            k = dot(beta, av)
            if k.denominator != 1:
                raise InvariantViolation(f"non-integral root coordinates in {label}")
            image = vsub(beta, vscale(k, a))
            if image not in simple_coords:
                coords = list(simple_coords[beta])
                coords[i] -= k
                simple_coords[image] = tuple(coords)
                queue.append(image)
    root_list = tuple(sorted(simple_coords))

    cartan_inv = inverse(cartan)
    weights = tuple(
        tuple(
            sum((cartan_inv[i][k] * simple[k][j] for k in range(n)), Q(0))
            for j in range(dim)
        )
        for i in range(n)
    )
    coweights = tuple(
        tuple(
            sum((cartan_inv[k][i] * coroots[k][j] for k in range(n)), Q(0))
            for j in range(dim)
        )
        for i in range(n)
    )

    positive = [b for b in root_list if sum(simple_coords[b], Q(0)) > 0]
    theta = max(positive, key=lambda b: (sum(simple_coords[b], Q(0)), simple_coords[b]))
    rho = qv([0] * dim)
    for b in positive:
        rho = vadd(rho, b)
    rho = vscale(Q(1, 2), rho)

    rs = RootSystem(
        label=label,
        family=family,
        rank=n,
        ambient_dim=dim,
        simple_roots=simple,
        roots=root_list,
        cartan=cartan,
        cartan_inverse=cartan_inv,
        fundamental_weights=weights,
        simple_coroots=coroots,
        fundamental_coweights=coweights,
        highest_root=theta,
        rho=rho,
        _simple_coords=simple_coords,
    )
    for i in range(n):
        if dot(theta, coroots[i]) < 0:
            raise InvariantViolation(f"highest root of {label} is not dominant")
        for j in range(n):
            if dot(weights[i], coroots[j]) != (1 if i == j else 0):
                raise InvariantViolation(f"weight/coroot duality broken in {label}")
            if dot(coweights[i], simple[j]) != (1 if i == j else 0):
                raise InvariantViolation(f"coweight/root duality broken in {label}")
    _CACHE[label] = rs
    return rs


class WeylElement:
    """An orthogonal matrix in the Weyl group; equality is matrix equality.

    The optional word is a non-canonical witness, a tuple of 1-based simple
    reflection indices with ``matrix = S[w[0]] @ S[w[1]] @ ...``.
    """

    __slots__ = ("matrix", "word")

    def __init__(self, matrix: Matrix, word: Optional[tuple[int, ...]] = None):
        self.matrix = qm(matrix)
        self.word = tuple(word) if word is not None else None

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"WeylElement(word={self.word}, matrix={self.matrix})"

    def apply(self, v: Sequence[Q]) -> Vector:
        return mat_vec(self.matrix, v)

    def compose(self, other: "WeylElement") -> "WeylElement":
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        return WeylElement(mat_mul(self.matrix, other.matrix), word)


def identity_element(dim: int) -> WeylElement:
    return WeylElement(identity_matrix(dim), ())


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """The reflection s_i, 1-based as in the usual numbering."""
    if not 1 <= i <= rs.rank:
        raise InvalidInput(f"simple reflection index {i} out of range for {rs.label}")
    return WeylElement(rs.reflection_matrix(i - 1), (i,))


def coordinate_swap(dim: int, i: int, j: int) -> WeylElement:
    """The linear map exchanging coordinates i and j (0-based)."""
    cols = [_unit(dim, k) for k in range(dim)]
    cols[i], cols[j] = cols[j], cols[i]
    return WeylElement(transpose(qm(cols)))


def sign_flip(dim: int, indices: Iterable[int]) -> WeylElement:
    """The diagonal map negating the listed coordinates (0-based)."""
    diag = [Q(1)] * dim
    for i in indices:
        diag[i] = Q(-1)
    return WeylElement(tuple(tuple(diag[r] if r == c else Q(0) for c in range(dim)) for r in range(dim)))


def preserves_root_set(rs: RootSystem, element: WeylElement) -> bool:
    root_set = set(rs.roots)
    return all(element.apply(b) in root_set for b in rs.roots)


def positive_roots(rs: RootSystem) -> list["LatticeVector"]:
    """Positive roots sorted by height, as lattice vectors in ambient coordinates."""
    from .lattice import LatticeVector

    return [LatticeVector(rs, "ambient", b) for b in rs.positive_root_vectors()]


def highest_root(rs: RootSystem) -> "LatticeVector":
    from .lattice import LatticeVector

    return LatticeVector(rs, "ambient", rs.highest_root)


def weyl_order(rs: RootSystem) -> int:
    """Order of the Weyl group, as the product of the fundamental degrees.

    The degrees are the exponents plus one, and the exponents are read off
    as the conjugate of the partition counting positive roots by height.
    No group element is ever enumerated, which is what makes E8 instant.
    """
    heights = Counter(int(rs.height(b)) for b in rs.positive_root_vectors())
    top = max(heights)
    parts = [heights.get(i, 0) for i in range(1, top + 1)]
    exponents = [sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)]
    if len(exponents) != rs.rank:
        raise InvariantViolation(f"height partition of {rs.label} has wrong conjugate length")
    order = 1
    for m in exponents:
        order *= m + 1
    return order


def weyl_enumerate(rs: RootSystem, bound: int = 2000) -> list[WeylElement]:
    """Every element of the Weyl group as a matrix, refused above the bound."""
    order = weyl_order(rs)
    if order > bound:
        raise BoundExceeded(
            f"Weyl group of {rs.label} has order {order}, above the bound {bound}"
        )
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    elements = subgroup_closure(gens, bound=order)
    if len(elements) != order:
        raise InvariantViolation(
            f"enumerated {len(elements)} elements of W({rs.label}), expected {order}"
        )
    return elements


def subgroup_closure(
    generators: Sequence[WeylElement],
    bound: int = 2000,
    root_system: Optional[RootSystem] = None,
) -> list[WeylElement]:
    """Close a set of orthogonal matrices under composition, refused past the bound.

    When a root system is supplied, every generator is checked to permute its
    root set first.  The result is sorted by matrix for determinism.
    """
    if not generators:
        raise InvalidInput("cannot close an empty generating set of unknown dimension")
    if root_system is not None:
        for g in generators:
            if not preserves_root_set(root_system, g):
                raise InvalidInput("generator does not preserve the root set")
    dim = len(generators[0].matrix)
    seen: dict[Matrix, WeylElement] = {}
    ident = identity_element(dim)
    seen[ident.matrix] = ident
    frontier = [ident]
    while frontier:
        new_frontier = []
        for w in frontier:
            for g in generators:
                prod = w.compose(g)
                if prod.matrix not in seen:
                    if len(seen) >= bound:
                        raise BoundExceeded(
                            f"subgroup closure exceeded the bound {bound}"
                        )
                    seen[prod.matrix] = prod
                    new_frontier.append(prod)
        frontier = new_frontier
    return [seen[m] for m in sorted(seen)]


def orbit(group: Iterable[WeylElement], v) -> tuple[Vector, ...]:
    """The orbit {g.v}, sorted lexicographically for determinism.

    Accepts a raw vector or anything with an ``ambient()`` method.
    """
    vec = v.ambient() if hasattr(v, "ambient") else qv(v)
    images = {g.apply(vec) for g in group}
    return tuple(sorted(images))


def longest_element(rs: RootSystem) -> WeylElement:
    """The longest element w0, built by a greedy descent from rho to -rho."""
    target = vneg(rs.rho)
    v = rs.rho
    word: list[int] = []
    matrix = identity_matrix(rs.ambient_dim)
    num_pos = len(rs.positive_root_vectors())
    while v != target:
        i = next(
            (k for k in range(rs.rank) if dot(v, rs.simple_coroots[k]) > 0),
            None,
        )
        if i is None or len(word) > num_pos:
            raise InvariantViolation(f"descent from rho to -rho failed in {rs.label}")
        refl = rs.reflection_matrix(i)
        v = mat_vec(refl, v)
        matrix = mat_mul(refl, matrix)
        word.append(i + 1)
    if len(word) != num_pos:
        raise InvariantViolation(f"longest element of {rs.label} has wrong length")
    w0 = WeylElement(matrix, tuple(reversed(word)))
    pos = set(rs.positive_root_vectors())
    if any(vneg(w0.apply(b)) not in pos for b in pos):
        raise InvariantViolation(f"w0 does not send positive roots to negatives in {rs.label}")
    weight_involution(rs, w0)
    return w0


def weight_involution(rs: RootSystem, w0: Optional[WeylElement] = None) -> tuple[int, ...]:
    """The permutation k -> k* with -w0(omega_k) = omega_{k*}, 1-based."""
    if w0 is None:
        w0 = longest_element(rs)
    perm = []
    weights = {w: i + 1 for i, w in enumerate(rs.fundamental_weights)}
    for k in range(rs.rank):
        image = vneg(w0.apply(rs.fundamental_weights[k]))
        if image not in weights:
            raise InvariantViolation(
                f"-w0 does not permute the fundamental weights of {rs.label}"
            )
        perm.append(weights[image])
    return tuple(perm)
