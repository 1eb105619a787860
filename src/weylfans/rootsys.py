"""Simple root systems in exact coordinates, and their Weyl groups.

Each bundled type comes with an explicit rational coordinate model: the
classical families use the usual orthonormal models, G2 lives in the
sum-zero plane of Q^3, F4 in Q^4, and E6/E7/E8 inside the even/half-integer
model of Q^8.  The derived data (roots, Cartan matrix, fundamental weights
and coweights, the highest root) is computed once at construction time and
frozen.  The roots are closed in integer simple-root coordinates under the
integer Cartan matrix, and each root keeps those integer coordinates; the
Fraction-keyed map that ``simple_root_coords`` reads and the lattice
module's basis changes are filled on first use, by idempotent writes, so
instances are immutable in value and safe to share between threads.  Weyl
group elements are integer matrices over one denominator; Fraction appears
only in the values handed out.  Enumerating a Weyl group walks the orbit of
rho on integer weight coordinates and builds each element's matrix once,
and the longest element and the simple reflections are built by the same
rank-one update, w times s_i.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from ._record import Record
from .errors import BoundExceeded, InvalidInput, InvariantViolation
from .linalg import (
    Matrix,
    Vector,
    _common_ints,
    _dual_rows,
    _int_mat_vec,
    _int_unit,
    _primitive_ints,
    qm,
    qv,
)

FAMILIES = "ABCDEFG"


def _simple_root_model(family: str, n: int) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """Ambient dimension and simple roots for a simple type, Bourbaki order,
    as integer rows over one denominator s: (dim, rows, s)."""

    if family == "A" and n >= 1:
        # e_i - e_{i+1}
        return n + 1, tuple(tuple((j == i) - (j == i + 1) for j in range(n + 1)) for i in range(n)), 1
    # B, C and D share the roots e_i - e_{i+1}, i < n - 1, and differ in the last one
    chain = [tuple((j == i) - (j == i + 1) for j in range(n)) for i in range(n - 1)]
    if family == "B" and n >= 2:
        return n, (*chain, tuple(int(j == n - 1) for j in range(n))), 1
    if family == "C" and n >= 2:
        return n, (*chain, tuple(2 * (j == n - 1) for j in range(n))), 1
    if family == "D" and n >= 4:
        return n, (*chain, tuple(int(j >= n - 2) for j in range(n))), 1
    if family == "E" and n in (6, 7, 8):
        roots = (
            (1, 1, -1, -1, -1, -1, -1, -1),
            (0, 2, 2, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
            (0, 0, 0, 0, -2, 2, 0, 0),
            (0, 0, 0, 0, 0, -2, 2, 0),
            (0, 0, 0, 0, 0, 0, -2, 2),
        )
        return 8, roots[:n], 2
    if family == "F" and n == 4:
        return 4, ((2, -2, 0, 0), (0, 2, -2, 0), (0, 0, 2, 0), (-1, -1, -1, 1)), 2
    if family == "G" and n == 2:
        return 3, ((1, -1, 0), (-1, 2, -1)), 1
    raise InvalidInput(f"no simple root system of type {family}{n}")


def parse_label(label: str) -> tuple[str, int]:
    label = label.strip().upper()
    digits = label[1:]
    if len(label) < 2 or label[0] not in FAMILIES or not (digits.isascii() and digits.isdigit()):
        raise InvalidInput(f"cannot parse root system label {label!r}")
    try:
        return label[0], int(digits)
    except ValueError:  # more digits than int() accepts
        raise InvalidInput(f"root system rank {digits[:20]}... is too large") from None


# the largest root system build_root_system closes; A40 (1,640 roots) fits
MAX_ROOTS = 2000


def _root_count(family: str, n: int) -> int:
    """Closed-form number of roots of a simple type (Bourbaki, Plates I-IX)."""
    if family == "A" and n >= 1:
        return n * (n + 1)
    if family in "BC" and n >= 2:
        return 2 * n * n
    if family == "D" and n >= 4:
        return 2 * n * (n - 1)
    count = {("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12}.get((family, n))
    if count is None:
        raise InvalidInput(f"no simple root system of type {family}{n}")
    return count


def _coroot(beta: Vector) -> Vector:
    """The coroot 2 beta / (beta, beta), read off the integer row b of beta
    over s as 2 s b / (b . b)."""
    (b,), s = _common_ints([beta])
    n = sum(x * x for x in b)
    return tuple(Q(2 * s * x, n) for x in b)


def _nonzero(columns: Iterable[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """Each integer column as its (index, entry) pairs with a nonzero entry:
    Cartan and simple-root columns are sparse, so a dot product with one
    reads a few entries instead of the rank."""
    return [[(j, x) for j, x in enumerate(col) if x] for col in columns]


class RootSystem(Record):
    """A simple root system with its derived lattice data."""

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
    # the integer simple-root coordinates of each root, aligned with roots
    _simple_coords: tuple
    # root -> its Fraction simple-root coordinates, built on first use
    _coords_by_root: Optional[dict] = None
    # (source tag, target tag) -> (integer rows, denominator), filled on
    # first use by the lattice module; each write stores the same value
    _basis_changes: dict

    def __init__(self, *args, _simple_coords: tuple, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_simple_coords", _simple_coords)
        # one fresh dict per root system: a shared one would mix types' changes
        object.__setattr__(self, "_basis_changes", {})

    def __hash__(self) -> int:
        # the label determines the system, so equal systems hash equal, and
        # a hash reads none of the root data (a lattice vector hashes its system)
        return hash(self.label)

    def simple_root_coords(self, beta: Vector) -> Vector:
        """Coordinates of a root in the simple-root basis, always integral."""
        coords = self._coords_by_root
        if coords is None:
            # the few distinct entries are each built once
            entry = {x: Q(x) for x in {x for c in self._simple_coords for x in c}}.__getitem__
            coords = {b: tuple(map(entry, c)) for b, c in zip(self.roots, self._simple_coords)}
            object.__setattr__(self, "_coords_by_root", coords)
        try:
            return coords[beta]
        except KeyError:
            raise InvalidInput(f"{beta} is not a root of {self.label}") from None

    def positive_root_vectors(self) -> list[Vector]:
        # ties inside one height level break toward lower simple-root indices
        keyed = []
        for b, c in zip(self.roots, self._simple_coords):
            height = sum(c)
            if height > 0:
                keyed.append((height, [-x for x in c], b))
        return [b for _, _, b in sorted(keyed)]

    def coroot(self, beta: Vector) -> Vector:
        return _coroot(beta)

    def reflection_matrix(self, i: int) -> Matrix:
        """Matrix of the reflection in the i-th simple root (0-based): the
        identity minus alpha times the transposed coroot, over Fraction."""
        alpha = self.simple_roots[i]
        n = sum(a * a for a in alpha)
        return tuple(
            tuple(Q(r == c) - a * 2 * b / n for c, b in enumerate(alpha)) for r, a in enumerate(alpha)
        )


_CACHE: dict[str, RootSystem] = {}


def build_root_system(type_label: str) -> RootSystem:
    """Construct (and cache) the root system for a label such as "B3" or "E8".

    Types with more than ``MAX_ROOTS`` roots are refused with BoundExceeded
    before any vector is built.
    """
    family, n = parse_label(type_label)
    count = _root_count(family, n)
    label = f"{family}{n}"
    if count > MAX_ROOTS:
        raise BoundExceeded(f"{label} has {count} roots, above the bound {MAX_ROOTS}")
    if label in _CACHE:
        return _CACHE[label]
    # the simple roots as integer rows over one denominator s, so that
    # gram[i][j] = s^2 (alpha_i, alpha_j)
    dim, simple_ints, s = _simple_root_model(family, n)
    simple = tuple(tuple(Q(x, s) for x in row) for row in simple_ints)
    gram = [[sum(map(mul, a, b)) for b in simple_ints] for a in simple_ints]

    # Cartan matrix A[i][j] = <alpha_i, alpha_j^vee> = 2(a_i, a_j)/(a_j, a_j)
    cartan_ints = [[2 * g // gram[j][j] for j, g in enumerate(row)] for row in gram]
    for i, row in enumerate(gram):
        for j, g in enumerate(row):
            x = cartan_ints[i][j]
            if 2 * g != x * gram[j][j]:
                raise InvariantViolation(f"non-integral Cartan entry in {label}")
            if i == j and x != 2:
                raise InvariantViolation(f"Cartan diagonal is not 2 in {label}")
            if i != j and x > 0:
                raise InvariantViolation(f"positive off-diagonal Cartan entry in {label}")
    # the Gram matrix G of real vectors is positive semidefinite, so the form
    # is positive definite, and the closure below finite, exactly when G is
    # nonsingular, that is when A = G diag(2 / G[j][j]) is.  With the columns
    # of A as its basis rows, _dual_rows eliminates [A | I] once, refuses a
    # singular A, and returns A^-1 as integers over d > 0
    columns = list(zip(*cartan_ints))
    try:
        inv_ints, d = _dual_rows(columns, n)
    except InvalidInput:
        raise InvariantViolation(f"symmetrized Cartan form not positive definite in {label}") from None

    # close the simple roots under simple reflections in simple-root
    # coordinates: s_i(c) = c - <c, alpha_i^vee> e_i with <c, alpha_i^vee> =
    # sum_j c_j A[j][i], summed over the nonzero entries of column i.  Every
    # positive root but a simple one is s_i of a lower positive root c with
    # <c, alpha_i^vee> < 0 (Bourbaki, Lie Groups and Lie Algebras, ch. VI
    # §1), so the steps that raise the height find the positive roots, and
    # the negative roots are their negatives
    nonzero_cols = _nonzero(columns)
    units = [_int_unit(n, i) for i in range(n)]
    positive_coords = set(units)
    queue = list(units)
    while queue:
        c = queue.pop()
        for i, col in enumerate(nonzero_cols):
            k = sum([c[j] * x for j, x in col])
            if k < 0:
                image = list(c)
                image[i] -= k
                image = tuple(image)
                if image not in positive_coords:
                    positive_coords.add(image)
                    queue.append(image)
    if 2 * len(positive_coords) != count:
        raise InvariantViolation(f"closure found {2 * len(positive_coords)} roots of {label}, expected {count}")

    # each root in the ambient model, as integers over s; sorting them sorts
    # the rational roots, whose few distinct entries are each built once
    ambient_cols = list(zip(*simple_ints))
    nonzero_amb = _nonzero(ambient_cols)
    by_ambient = []
    for c in positive_coords:
        amb = tuple([sum([c[j] * x for j, x in col]) for col in nonzero_amb])
        by_ambient += [(amb, c), (tuple([-x for x in amb]), tuple([-x for x in c]))]
    by_ambient.sort()
    entry = {x: Q(x, s) for x in {x for amb, _ in by_ambient for x in amb}}.__getitem__
    root_list = tuple(tuple(map(entry, amb)) for amb, _ in by_ambient)

    cartan_inv = tuple(tuple(Q(x, d) for x in row) for row in inv_ints)

    # omega_i = sum_k (A^-1)[i][k] alpha_k and omega_i^vee = sum_k (A^-1)[k][i] alpha_k^vee,
    # as integers over d s and d t
    coroots = tuple(_coroot(a) for a in simple)
    coroot_ints, t = _common_ints(coroots)
    coroot_cols = list(zip(*coroot_ints))
    weight_ints = [[sum(map(mul, row, col)) for col in ambient_cols] for row in inv_ints]
    coweight_ints = [[sum(map(mul, row, col)) for col in coroot_cols] for row in zip(*inv_ints)]
    weights = tuple(tuple(Q(x, d * s) for x in row) for row in weight_ints)
    coweights = tuple(tuple(Q(x, d * t) for x in row) for row in coweight_ints)

    positive = [(amb, c) for amb, c in by_ambient if sum(c) > 0]
    theta_amb, _ = max(positive, key=lambda p: (sum(p[1]), p[1]))
    theta = tuple(Q(x, s) for x in theta_amb)
    rho = tuple(Q(sum(col), 2 * s) for col in zip(*(amb for amb, _ in positive)))

    for i in range(n):
        if sum(map(mul, theta_amb, coroot_ints[i])) < 0:
            raise InvariantViolation(f"highest root of {label} is not dominant")
        for j in range(n):
            if sum(map(mul, weight_ints[i], coroot_ints[j])) != (d * s * t if i == j else 0):
                raise InvariantViolation(f"weight/coroot duality broken in {label}")
            if sum(map(mul, coweight_ints[i], simple_ints[j])) != (d * t * s if i == j else 0):
                raise InvariantViolation(f"coweight/root duality broken in {label}")
    rs = RootSystem(
        label=label,
        family=family,
        rank=n,
        ambient_dim=dim,
        simple_roots=simple,
        roots=root_list,
        cartan=tuple(tuple(Q(x) for x in row) for row in cartan_ints),
        cartan_inverse=cartan_inv,
        fundamental_weights=weights,
        simple_coroots=coroots,
        fundamental_coweights=coweights,
        highest_root=theta,
        rho=rho,
        _simple_coords=tuple(c for _, c in by_ambient),
    )
    _CACHE[label] = rs
    return rs


class WeylElement:
    """An orthogonal matrix in the Weyl group; equality is matrix equality.

    The matrix is held as canonical integer rows N over one denominator
    d > 0, the lcm of its entries' denominators, so each matrix has exactly
    one (N, d): equality and hashing read it, ``compose`` is one integer
    matrix product and one gcd reduction, and ``apply`` one integer
    matrix-vector product.  ``matrix`` is the Fraction view, built on first
    use; the write is idempotent, so elements stay safe to share between
    threads.  The optional word is a non-canonical witness, a tuple of
    1-based simple reflection indices with ``matrix = S[w[0]] @ S[w[1]] @ ...``.
    The constructor does not check that claim.
    """

    __slots__ = ("_rows", "_den", "_matrix", "word")

    def __init__(self, matrix: Matrix, word: Optional[tuple[int, ...]] = None):
        self._matrix = qm(matrix)
        rows, self._den = _common_ints(self._matrix)
        self._rows = tuple(map(tuple, rows))
        self.word = tuple(word) if word is not None else None

    @classmethod
    def _from_ints(cls, rows, den: int, word: Optional[tuple[int, ...]]) -> "WeylElement":
        """The element with canonical integer rows over den (no checks)."""
        w = cls.__new__(cls)
        w._rows, w._den, w._matrix, w.word = rows, den, None, word
        return w

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            d = self._den
            self._matrix = tuple(tuple(Q(x, d) for x in row) for row in self._rows)
        return self._matrix

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self._den == other._den
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._den))

    def __repr__(self) -> str:
        return f"WeylElement(word={self.word}, matrix={self.matrix})"

    def apply(self, v: Sequence[Q]) -> Vector:
        if len(v) != len(self._rows):
            raise InvalidInput("dimension mismatch in dot product")
        dots, den = _int_mat_vec(self._rows, self._den, v)
        return tuple(Q(x, den) for x in dots)

    def compose(self, other: "WeylElement") -> "WeylElement":
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        cols = tuple(zip(*other._rows))
        rows = [tuple([sum(map(mul, row, col)) for col in cols]) for row in self._rows]
        return _canonical(rows, self._den * other._den, word)


def identity_element(dim: int) -> WeylElement:
    return WeylElement._from_ints(tuple(_int_unit(dim, i) for i in range(dim)), 1, ())


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """The reflection s_i, 1-based as in the usual numbering: the identity
    times s_i, one rank-one update (`_times_reflection`)."""
    if not 1 <= i <= rs.rank:
        raise InvalidInput(f"simple reflection index {i} out of range for {rs.label}")
    return _times_reflection(identity_element(rs.ambient_dim), *_reflection_step(rs.simple_roots[i - 1]), (i,))


def coordinate_swap(dim: int, i: int, j: int) -> WeylElement:
    """The linear map exchanging coordinates i and j (0-based)."""
    rows = [_int_unit(dim, k) for k in range(dim)]
    rows[i], rows[j] = rows[j], rows[i]
    return WeylElement._from_ints(tuple(rows), 1, None)


def sign_flip(dim: int, indices: Iterable[int]) -> WeylElement:
    """The diagonal map negating the listed coordinates (0-based)."""
    diag = [1] * dim
    for i in indices:
        diag[i] = -1
    rows = tuple(tuple(diag[r] * (r == c) for c in range(dim)) for r in range(dim))
    return WeylElement._from_ints(rows, 1, None)


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
    heights = Counter(h for h in map(sum, rs._simple_coords) if h > 0)
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
    """Every element of the Weyl group as a matrix, refused above the bound.

    The elements are found by a walk on the orbit of rho.  It runs breadth
    first from the identity and multiplies on the right by s_1, ..., s_n in
    turn, as ``subgroup_closure`` does, so it finds the same elements with
    the same words; but it keys each element w by y = w^-1 rho in integer
    fundamental-weight coordinates, where rho is (1, ..., 1).  Since
    (w s_i)^-1 rho = s_i(y) = y - y_i (row i of the Cartan matrix), an edge
    costs O(rank), and each element's matrix is built once, when its key is
    new, by the rank-one update w s_i = w - (2 / (a . a)) (w a) a^T.  An
    edge with y_i < 0 is skipped: then w alpha_i < 0, so w s_i is shorter
    than w and an earlier layer already holds it.

    Rho is regular, so W acts simply transitively on its orbit and the key
    is injective.  The certificate is the count against ``weyl_order``; a
    miscount can only be a bug and raises InvariantViolation.  The result is
    sorted by matrix for determinism.
    """
    order = weyl_order(rs)
    if order > bound:
        raise BoundExceeded(
            f"Weyl group of {rs.label} has order {order}, above the bound {bound}"
        )
    cartan = [[x.numerator for x in row] for row in rs.cartan]
    steps = [_reflection_step(alpha) for alpha in rs.simple_roots]
    ident = identity_element(rs.ambient_dim)
    rho = (1,) * rs.rank
    seen = {rho}
    elements = [ident]
    frontier = [(ident, rho)]
    while frontier:
        new_frontier = []
        for w, y in frontier:
            for i, step in enumerate(steps):
                k = y[i]
                if k < 0:
                    continue
                key = tuple([x - k * c for x, c in zip(y, cartan[i])])
                if key not in seen:
                    seen.add(key)
                    prod = _times_reflection(w, *step, w.word + (i + 1,))
                    elements.append(prod)
                    new_frontier.append((prod, key))
        frontier = new_frontier
    if len(elements) != order:
        raise InvariantViolation(
            f"enumerated {len(elements)} elements of W({rs.label}), expected {order}"
        )
    return _sorted_by_matrix(elements)


def _reflection_step(alpha: Vector) -> tuple[list[int], int, int]:
    """A root as a primitive integer row a, with 2 / (a . a) = p / q in lowest
    terms: the data of a rank-one update by its reflection."""
    a = _primitive_ints(alpha)
    n = sum(x * x for x in a)
    return a, 2 // gcd(2, n), n // gcd(2, n)


def _times_reflection(
    w: WeylElement, a: Sequence[int], p: int, q: int, word: Optional[tuple[int, ...]]
) -> WeylElement:
    """w s_a for the reflection in the integer row a, where 2 / (a . a) = p / q
    in lowest terms: x - <x, a^vee> a is x - (p / q)(a . x) a, so w s_a is
    the rank-one update q N - p (N a) a^T over q d, for w = N over d,
    reduced to canonical form.  A row with N a = 0 is kept as it is when q
    is 1."""
    rows = []
    for row in w._rows:
        k = p * sum(map(mul, row, a))
        rows.append(tuple([q * x - k * y for x, y in zip(row, a)]) if k or q > 1 else row)
    return _canonical(rows, q * w._den, word)


def _canonical(rows: list, den: int, word: Optional[tuple[int, ...]]) -> WeylElement:
    """The element with integer rows over den > 0, divided by their common
    gcd with den into canonical form."""
    g = gcd(den, *(x for row in rows for x in row)) if den > 1 else 1
    if g > 1:
        rows = [tuple([x // g for x in row]) for row in rows]
    return WeylElement._from_ints(tuple(rows), den // g, word)


def _sorted_by_matrix(elements: Iterable[WeylElement]) -> list[WeylElement]:
    """The elements sorted as their Fraction matrices sort, without building
    them: rescaled to one common denominator, the integer rows sort alike,
    and an element already over it is keyed by its rows as they are."""
    elements = list(elements)
    common = lcm(*(w._den for w in elements))

    def key(w: WeylElement):
        f = common // w._den
        return w._rows if f == 1 else tuple([tuple([x * f for x in row]) for row in w._rows])

    return sorted(elements, key=key)


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
    ident = identity_element(len(generators[0]._rows))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for w in frontier:
            for g in generators:
                prod = w.compose(g)
                if prod not in seen:
                    if len(seen) >= bound:
                        raise BoundExceeded(
                            f"subgroup closure exceeded the bound {bound}"
                        )
                    seen.add(prod)
                    new_frontier.append(prod)
        frontier = new_frontier
    return _sorted_by_matrix(seen)


def orbit(group: Iterable[WeylElement], v) -> tuple[Vector, ...]:
    """The orbit {g.v}, sorted lexicographically for determinism.

    Accepts a raw vector or anything with an ``ambient()`` method.
    """
    vec = v.ambient() if hasattr(v, "ambient") else qv(v)
    images = {g.apply(vec) for g in group}
    return tuple(sorted(images))


def longest_element(rs: RootSystem) -> WeylElement:
    """The longest element w0, built by a greedy descent from rho to -rho.

    The descent runs on integer fundamental-weight coordinates, where rho is
    (1, ..., 1), <lambda, alpha_k^vee> is lambda_k and s_i subtracts lambda_i
    times row i of the Cartan matrix, the weight coordinates of alpha_i.
    Each step multiplies on the right by s_i, one rank-one update
    (`_times_reflection`), and puts i in front of the word.  A descent
    through s_(i_1), ..., s_(i_m) gives w0 = s_(i_m) ... s_(i_1), as the
    word says; the right products build s_(i_1) ... s_(i_m), its inverse,
    which is w0 again because w0 is an involution.
    """
    cartan = [[x.numerator for x in row] for row in rs.cartan]
    v, target = [1] * rs.rank, [-1] * rs.rank
    steps = [_reflection_step(alpha) for alpha in rs.simple_roots]
    w0 = identity_element(rs.ambient_dim)
    num_pos = len(rs.roots) // 2
    while v != target:
        i = next((k for k in range(rs.rank) if v[k] > 0), None)
        if i is None or len(w0.word) > num_pos:
            raise InvariantViolation(f"descent from rho to -rho failed in {rs.label}")
        v = [x - v[i] * a for x, a in zip(v, cartan[i])]
        w0 = _times_reflection(w0, *steps[i], (i + 1,) + w0.word)
    if len(w0.word) != num_pos:
        raise InvariantViolation(f"longest element of {rs.label} has wrong length")
    # on integer rows: w0, N over d, sends p/s to minus q/s exactly when N p = -d q
    pos, _ = _common_ints(rs.positive_root_vectors())
    targets = {tuple(-w0._den * x for x in q) for q in pos}
    if any(tuple(sum(map(mul, row, p)) for row in w0._rows) not in targets for p in pos):
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
        image = tuple(-x for x in w0.apply(rs.fundamental_weights[k]))
        if image not in weights:
            raise InvariantViolation(
                f"-w0 does not permute the fundamental weights of {rs.label}"
            )
        perm.append(weights[image])
    return tuple(perm)
