"""Exact linear algebra for doubled symplectic and orthogonal spaces.

A doubled space carries the difference form pulled back from two copies of
a fixed symplectic or split odd orthogonal space.  Maximal isotropic
subspaces are handled as exact rational basis matrices; the samplers are
deterministic per seed and stay inside the relevant isometry group, so
every sampled subspace is maximal isotropic by construction.  Both samplers
work on integer rows from the draw to the basis: the symplectic one moves
primitive integer rows by transvections, and the orthogonal one takes its
Cayley transform from one fraction-free elimination, with one exact
division per entry when the public Fraction basis is built.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
from operator import mul

from ._record import Record
from .errors import BoundExceeded, InvalidInput, InvariantViolation
from .linalg import Matrix, _echelon, _primitive_ints, _unit, qm, rank

# the largest half rank random_maximal_isotropic samples; the stratum tables
# themselves are closed formulas and take any half rank
MAX_HALF_RANK = 10


class DoubledSpace(Record):
    half_rank: int
    kind: str  # "symplectic" or "orthogonal"

    @property
    def block_dim(self) -> int:
        return 2 * self.half_rank if self.kind == "symplectic" else 2 * self.half_rank + 1

    @property
    def dim(self) -> int:
        return 2 * self.block_dim

    def form(self) -> Matrix:
        """The difference form on the doubled space, block diagonal."""
        return _signed_permutation(_form_index(self))


def symplectic_doubled(n: int) -> DoubledSpace:
    if n < 1:
        raise InvalidInput("half rank must be at least 1")
    return DoubledSpace(half_rank=n, kind="symplectic")


def orthogonal_doubled(n: int) -> DoubledSpace:
    if n < 1:
        raise InvalidInput("half rank must be at least 1")
    return DoubledSpace(half_rank=n, kind="orthogonal")


@lru_cache(maxsize=64)
def _form_index(space: DoubledSpace) -> tuple[tuple[int, int], ...]:
    """The form as a permutation with signs: row i of the form matrix has a
    single nonzero entry, sign at column position.  Cached per space."""
    m, n = space.block_dim, space.half_rank
    if space.kind == "symplectic":
        first = [(n + i, 1) for i in range(n)] + [(i, -1) for i in range(n)]
    else:
        first = [(m - 1 - i, 1) for i in range(m)]
    # the second summand carries the negated form
    return tuple(first + [(m + j, -sign) for j, sign in first])


def _signed_permutation(index: tuple[tuple[int, int], ...]) -> Matrix:
    """The matrix whose row i holds sign at column position, for each
    (position, sign) of the index."""
    n = len(index)
    return tuple(tuple(Q(sign if c == j else 0) for c in range(n)) for j, sign in index)


def _form_apply(space: DoubledSpace, v) -> list:
    return [s * v[j] for j, s in _form_index(space)]


class IsotropicSubspace(Record):
    space: DoubledSpace
    basis: Matrix  # rows span the subspace


def diagonal_subspace(space: DoubledSpace) -> IsotropicSubspace:
    """The graph of the identity: the base point with invariant zero."""
    m = space.block_dim
    # e_i + e_{m+i}: the same unit in both blocks of the doubled space
    rows = [tuple(int(j % m == i) for j in range(space.dim)) for i in range(m)]
    return IsotropicSubspace(space=space, basis=qm(rows))


def split_subspace(space: DoubledSpace) -> IsotropicSubspace:
    """A direct sum of maximal isotropics from each factor: invariant n."""
    n, m = space.half_rank, space.block_dim
    rows = [_unit(space.dim, i) for i in range(n)]
    rows += [_unit(space.dim, m + i) for i in range(n)]
    if space.kind == "orthogonal":
        # the middle diagonal direction completes an odd-dimensional maximal
        rows.append(tuple(int(j % m == n) for j in range(space.dim)))
    return IsotropicSubspace(space=space, basis=qm(rows))


def _assert_maximal_isotropic(rows: list[list[int]], space: DoubledSpace) -> None:
    if len(rows) != space.block_dim or rank(rows) != space.block_dim:
        raise InvalidInput("subspace is not of maximal isotropic dimension")
    images = [_form_apply(space, r) for r in rows]
    for i, r in enumerate(rows):
        for img in images[: i + 1]:
            if sum(map(mul, r, img)) != 0:
                raise InvalidInput("the difference form does not vanish on the subspace")


def intersection_invariant(v: IsotropicSubspace) -> int:
    """dim of the intersection with either summand, asserted equal.

    An unequal pair would contradict the defining property of maximal
    isotropic subspaces of a difference form, so it is surfaced as an
    internal invariant violation rather than a value.
    """
    rows = [_primitive_ints(row) for row in v.basis]
    space = v.space
    _assert_maximal_isotropic(rows, space)
    m = space.block_dim
    k1 = m - rank([row[m:] for row in rows])  # kernel of the second projection
    k2 = m - rank([row[:m] for row in rows])
    if k1 != k2:
        raise InvariantViolation(f"intersection dimensions differ: {k1} versus {k2}")
    return k1


def random_maximal_isotropic(space: DoubledSpace, seed: int) -> IsotropicSubspace:
    """Deterministic pseudo-random maximal isotropic subspace.

    Symplectic spaces move a split subspace by a product of symplectic
    transvections; orthogonal spaces move the diagonal by the Cayley
    transform (I - A)(I + A)^-1 of a form-antisymmetric integer matrix A,
    redrawing on the rare singular draw.  One fraction-free elimination
    gives d and the integer matrix d (I + A)^-1, so the transform is an
    integer product over d and each basis entry is one exact division.
    Half ranks above ``MAX_HALF_RANK`` are refused with BoundExceeded
    before the first draw.
    """
    if space.half_rank > MAX_HALF_RANK:
        raise BoundExceeded(f"half rank {space.half_rank} is above the sampling bound {MAX_HALF_RANK}")
    rng = random.Random(seed)
    dim, m = space.dim, space.block_dim
    if space.kind == "symplectic":
        # integer rows throughout: a transvection with parameter p/q sends a
        # row r to q*r + p*pairing*v, the same ray as r + (p/q)*pairing*v
        rows = [[int(x) for x in row] for row in split_subspace(space).basis]
        count = space.half_rank * (2 * space.half_rank + 1)
        for _ in range(count):
            v = [rng.randint(-2, 2) for _ in range(dim)]
            while all(x == 0 for x in v):
                v = [rng.randint(-2, 2) for _ in range(dim)]
            p, q = rng.randint(-9, 9), rng.randint(1, 4)
            fv = _form_apply(space, v)
            new_rows = []
            for row in rows:
                pairing = sum(map(mul, row, fv))
                new = [q * x + p * pairing * y for x, y in zip(row, v)]
                g = gcd(*new)
                new_rows.append([x // g for x in new] if g > 1 else new)
            rows = new_rows
        return IsotropicSubspace(space=space, basis=qm(rows))
    for _ in range(32):
        s_rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                x = rng.randint(-3, 3)
                s_rows[i][j] = x
                s_rows[j][i] = -x
        # the split form squares to the identity, so A = F^{-1} S = F S is
        # just a signed row shuffle of S
        a = [[sign * x for x in s_rows[j]] for j, sign in _form_index(space)]
        # Gauss-Jordan on [I + A | I] leaves d * [I | (I + A)^-1]
        aug = [
            [int(r == c) + x for c, x in enumerate(row)] + [int(r == c) for c in range(dim)]
            for r, row in enumerate(a)
        ]
        reduced, pivots, d = _echelon(aug)
        if pivots != list(range(dim)):
            continue
        # the diagonal's row i is e_i + e_{m+i}, so its image is column i
        # plus column m+i of the transform (I - A) N / d, N = d (I + A)^-1
        cols = [[row[dim + i] + row[dim + m + i] for row in reduced] for i in range(m)]
        i_minus = [[int(r == c) - x for c, x in enumerate(row)] for r, row in enumerate(a)]
        basis = tuple(tuple(Q(sum(map(mul, row, col)), d) for row in i_minus) for col in cols)
        return IsotropicSubspace(space=space, basis=basis)
    raise InvariantViolation("all Cayley transform draws were singular")


def tau_image(v: IsotropicSubspace) -> IsotropicSubspace:
    """Image under the involution fixing the first summand and negating the second."""
    m = v.space.block_dim
    rows = [tuple(list(row[:m]) + [-x for x in row[m:]]) for row in v.basis]
    return IsotropicSubspace(space=v.space, basis=qm(rows))


def subspaces_equal(a: IsotropicSubspace, b: IsotropicSubspace) -> bool:
    stacked = [_primitive_ints(row) for row in (*a.basis, *b.basis)]
    return rank(stacked) == len(a.basis) == len(b.basis)


class SampleReport(Record):
    lemma: str  # plain-language statement of the verified law
    samples: int
    violations: int
    seed: int


def check_equal_intersections(space: DoubledSpace, sample_count: int, seed: int) -> SampleReport:
    """Sample maximal isotropics and verify equal intersection dimensions."""
    if sample_count < 0:
        raise InvalidInput(f"sample count must be nonnegative, not {sample_count}")
    violations = 0
    for i in range(sample_count):
        v = random_maximal_isotropic(space, seed * 1_000_003 + i)
        try:
            intersection_invariant(v)
        except InvariantViolation:
            violations += 1
    return SampleReport(
        lemma="maximal isotropic subspaces meet both summands in equal dimension",
        samples=sample_count,
        violations=violations,
        seed=seed,
    )


def tau_fixed_locus_check(space: DoubledSpace, sample_count: int, seed: int) -> SampleReport:
    """Verify per sample that the involution fixes a subspace exactly when
    its invariant is maximal."""
    if space.kind != "symplectic":
        raise InvalidInput("the involution check applies to symplectic doubled spaces")
    if sample_count < 0:
        raise InvalidInput(f"sample count must be nonnegative, not {sample_count}")
    violations = 0
    checked = 0
    samples = [random_maximal_isotropic(space, seed * 2_000_003 + i) for i in range(sample_count)]
    samples.append(split_subspace(space))
    samples.append(diagonal_subspace(space))
    for v in samples:
        checked += 1
        fixed = subspaces_equal(v, tau_image(v))
        if fixed != (intersection_invariant(v) == space.half_rank):
            violations += 1
    return SampleReport(
        lemma="the sign involution fixes a subspace exactly when its invariant is maximal",
        samples=checked,
        violations=violations,
        seed=seed,
    )


def _stratum_dims(n: int, k: int) -> tuple[int, int, int]:
    """(total, base, fiber) for the stratum with invariant k at half rank n:
    the group dimension n(2n+1), two isotropic Grassmannian factors, and
    the group of the reduced space.  Base plus fiber is cross-checked
    against the closed form total - k^2 on every call."""
    if not 0 <= k <= n:
        raise InvalidInput("the invariant must lie between 0 and the half rank")
    total = n * (2 * n + 1)
    base = k * (4 * n + 1 - 3 * k)
    fiber = (n - k) * (2 * (n - k) + 1)
    if base + fiber != total - k * k:
        raise InvariantViolation("orbit dimension formulas disagree")
    return total, base, fiber


def lg_orbit_dim(n: int, k: int) -> int:
    """Dimension of the stratum with invariant k in the symplectic case."""
    total, _, _ = _stratum_dims(n, k)
    return total - k * k


class OrbitData(Record):
    total_dim: int
    orbit_dim: int
    codim: int
    base_dim: int
    fiber_dim: int


def og_orbit_data(n: int, k: int) -> OrbitData:
    """Base, fiber and total dimensions of the orthogonal stratum with
    invariant k; the fiber group itself is not asserted."""
    total, base, fiber = _stratum_dims(n, k)
    return OrbitData(
        total_dim=total,
        orbit_dim=base + fiber,
        codim=total - base - fiber,
        base_dim=base,
        fiber_dim=fiber,
    )
