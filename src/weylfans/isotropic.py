"""Exact linear algebra for doubled symplectic and orthogonal spaces.

A doubled space carries the difference form pulled back from two copies of
a fixed symplectic or split odd orthogonal space.  Maximal isotropic
subspaces are handled as exact rational basis matrices; the samplers are
deterministic per seed and stay inside the relevant isometry group, so
every sampled subspace is maximal isotropic by construction.  Both samplers
work on integer rows from the draw to the basis: the symplectic one draws
all its transvections first, bounds the entries they can reach, and runs
them on the columns, each packed into one integer with one signed field of
that width per row, so a step is O(dim) big-integer operations; every row
is scaled by the step's denominator q, which moves no row off its ray, and
is unpacked and reduced to primitive once per draw, after the last
transvection.  The orthogonal one takes its Cayley transform from one
fraction-free elimination, with one exact division per entry when the
public Fraction basis is built.  Their integer draws read
``rng.getrandbits`` with ``randint``'s own rejection, so the stream is that
of ``randint``.  A subspace keeps two caches (`IsotropicSubspace`): its
primitive integer rows, which the invariant and the equality test read,
and the fraction-free echelon of those rows, taken as [B2 | B1]: the
invariant reads its pivots, and equality reduces each row of the second
subspace against it, as the same elimination would an appended last row,
and stops at the first row that stays nonzero.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from functools import lru_cache
from itertools import chain
from math import gcd
from operator import mul

from ._record import Record, cached, keep
from .errors import BoundExceeded, InvalidInput, InvariantViolation
from .linalg import Matrix, _echelon, _int_unit, _primitive_ints, qm, rank

# the largest half rank random_maximal_isotropic samples; the stratum tables
# themselves are closed formulas and take any half rank
MAX_HALF_RANK = 10

# the largest sample count the law checks draw: the casebook's largest
# (1,000) runs, and at half rank MAX_HALF_RANK one symplectic draw takes
# about 0.05-0.08 s and one check_equal_intersections sample, the draw and
# its invariant, about 0.15-0.3 s on a 2-core x86_64 host, so a count this
# size runs for minutes and a larger one for hours
MAX_SAMPLES = 1000


class DoubledSpace(Record):
    half_rank: int
    kind: str  # "symplectic" or "orthogonal"

    def __post_init__(self):
        if self.kind not in ("symplectic", "orthogonal"):
            raise InvalidInput(f"kind must be 'symplectic' or 'orthogonal', not {self.kind!r}")
        if type(self.half_rank) is not int:
            raise InvalidInput(f"half rank must be an integer, not {self.half_rank!r}")
        if self.half_rank < 1:
            raise InvalidInput("half rank must be at least 1")

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
    return DoubledSpace(half_rank=n, kind="symplectic")


def orthogonal_doubled(n: int) -> DoubledSpace:
    return DoubledSpace(half_rank=n, kind="orthogonal")


@lru_cache(maxsize=64)
def _form_index(space: DoubledSpace) -> tuple[tuple[int, int], ...]:
    """The form as a permutation with signs: row i of the form matrix has a
    single nonzero entry, sign at column position.  Cached per space; each
    sampler call and each invariant reads it once."""
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


def _basis_ints(v: IsotropicSubspace) -> list[list[int]]:
    """The primitive integer rows of the basis, read off it."""
    dim = v.space.dim
    if any(len(row) != dim for row in v.basis):
        raise InvalidInput(f"basis rows must have {dim} entries, the dimension of the doubled space")
    return [_primitive_ints(row) for row in v.basis]


def _stacked_echelon(v: IsotropicSubspace) -> tuple:
    """`_echelon([B2 | B1], reduced=False)` of the subspace's integer rows."""
    m = v.space.block_dim
    return _echelon([row[m:] + row[:m] for row in v._ints], reduced=False)


class IsotropicSubspace(Record):
    """A subspace given by the rows of its basis.

    Two caches sit beside the basis, out of equality, hashing and repr,
    kept by the `_record` protocol: ``_ints``, the primitive integer rows
    of the basis, row by row, which the samplers, the base points and
    `tau_image` hand over and a subspace built directly reads off its
    basis; and ``_ech``, their fraction-free echelon as [B2 | B1].
    """

    space: DoubledSpace
    basis: Matrix  # rows span the subspace
    _ints: tuple = cached(_basis_ints)
    _ech: tuple = cached(_stacked_echelon)

    def __init__(self, space: DoubledSpace, basis: Matrix, *, _ints=None):
        set_ = object.__setattr__
        set_(self, "space", space)
        set_(self, "basis", basis)
        if _ints is not None:
            keep(self, "_ints", _ints)


def _diagonal_rows(space: DoubledSpace, i: int) -> tuple[int, ...]:
    """e_i + e_{m+i}: the same unit in both blocks of the doubled space."""
    m = space.block_dim
    return tuple(int(j % m == i) for j in range(space.dim))


def _split_rows(space: DoubledSpace) -> tuple[tuple[int, ...], ...]:
    n, m, dim = space.half_rank, space.block_dim, space.dim
    rows = [_int_unit(dim, i) for i in range(n)] + [_int_unit(dim, m + i) for i in range(n)]
    if space.kind == "orthogonal":
        # the middle diagonal direction completes an odd-dimensional maximal
        rows.append(_diagonal_rows(space, n))
    return tuple(rows)


def diagonal_subspace(space: DoubledSpace) -> IsotropicSubspace:
    """The graph of the identity: the base point with invariant zero."""
    rows = tuple(_diagonal_rows(space, i) for i in range(space.block_dim))
    return IsotropicSubspace(space, qm(rows), _ints=rows)


def split_subspace(space: DoubledSpace) -> IsotropicSubspace:
    """A direct sum of maximal isotropics from each factor: invariant n."""
    rows = _split_rows(space)
    return IsotropicSubspace(space, qm(rows), _ints=rows)


def intersection_invariant(v: IsotropicSubspace) -> int:
    """dim of the intersection with either summand, asserted equal.

    The subspace is first asserted maximal isotropic: block_dim rows of
    full rank on which the form vanishes.  An unequal pair would contradict
    the defining property of maximal isotropic subspaces of a difference
    form, so it is surfaced as an internal invariant violation rather than
    a value.
    """
    rows = v._ints
    space = v.space
    m = space.block_dim
    # the kept elimination of [B2 | B1] gives the rank of the rows and, from
    # its pivots in the first m columns, the rank of B2
    pivots = v._ech[1] if len(rows) == m else ()
    if len(pivots) != m:
        raise InvalidInput("subspace is not of maximal isotropic dimension")
    index = _form_index(space)
    images = [[s * r[j] for j, s in index] for r in rows]
    for i, r in enumerate(rows):
        for img in images[: i + 1]:
            if sum(map(mul, r, img)) != 0:
                raise InvalidInput("the difference form does not vanish on the subspace")
    k1 = m - sum(p < m for p in pivots)  # kernel of the second projection
    k2 = m - rank([row[:m] for row in rows])
    if k1 != k2:
        raise InvariantViolation(f"intersection dimensions differ: {k1} versus {k2}")
    return k1


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count draws of ``rng.randint(lo, hi)``, the same stream: CPython's
    ``_randbelow_with_getrandbits`` draws k = width.bit_length() bits and
    redraws while they reach the width."""
    n = hi - lo + 1
    k = n.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(lo + r)
    return out


def _unpack(c: int, w: int, count: int) -> list[int]:
    """The count fields x_i of c = sum(x_i << (i * w)), each |x_i| < 2**(w - 1).

    The lowest field is c mod 2**w taken in [-2**(w - 1), 2**(w - 1)), the
    one residue in that range, and c minus it is the rest shifted up by w;
    a column left nonzero had an entry outside its field."""
    mask, half, full = (1 << w) - 1, 1 << (w - 1), 1 << w
    out = []
    for _ in range(count):
        f = c & mask
        if f >= half:
            f -= full
        out.append(f)
        c = (c - f) >> w
    if c:
        raise InvariantViolation("a packed entry overflowed its field")
    return out


def random_maximal_isotropic(space: DoubledSpace, seed: int) -> IsotropicSubspace:
    """Deterministic pseudo-random maximal isotropic subspace.

    Symplectic spaces move a split subspace by a product of symplectic
    transvections; orthogonal spaces move the diagonal by the Cayley
    transform (I - A)(I + A)^-1 of a form-antisymmetric integer matrix A,
    redrawing on the rare singular draw.  One fraction-free elimination
    gives d and the integer matrix d (I + A)^-1 J, where the columns of J
    span the diagonal; the transform equals 2 (I + A)^-1 - I, so each basis
    entry is one integer over d, reduced by one exact division.  Half ranks
    above ``MAX_HALF_RANK`` are refused with BoundExceeded before the first
    draw.
    """
    if space.half_rank > MAX_HALF_RANK:
        raise BoundExceeded(f"half rank {space.half_rank} is above the sampling bound {MAX_HALF_RANK}")
    rng = random.Random(seed)
    dim, m = space.dim, space.block_dim
    index = _form_index(space)
    if space.kind == "symplectic":
        # a transvection with parameter p/q sends a row r to q*r + p*pairing*v,
        # a positive multiple of r + (p/q)*pairing*v, so each row stays a
        # positive multiple of its primitive row until the one gcd after the
        # last transvection.  The draws never read the rows, so they come
        # first, with the bound they put on the entries
        steps = []
        growth = 1
        for _ in range(space.half_rank * (2 * space.half_rank + 1)):
            v = _randints(rng, -2, 2, dim)
            while not any(v):
                v = _randints(rng, -2, 2, dim)
            p = _randints(rng, -9, 9, 1)[0]
            q = _randints(rng, 1, 4, 1)[0]
            if not p:
                continue
            fv = [s * v[j] for j, s in index]
            steps.append((v, fv, p, q))
            # |pairing| <= B * sum|fv|, so a step takes a bound B on |entry|
            # to B * (q + |p| * max|v| * sum|fv|); entries start in {0, 1}
            growth *= q + abs(p) * max(map(abs, v)) * sum(map(abs, fv))
        # every final entry has |x| <= growth < 2**(w - 2): one w-bit field
        # each, signed.  Column j is packed as sum(rows[i][j] << (i * w));
        # packing is Z-linear and a step is a Z-linear map of the columns, so
        # the packed arithmetic is exact, and the fields unpack uniquely.
        # Every row, also one pairing to zero, is scaled by q > 0 at each
        # step, so it stays a positive multiple of the row it would be
        # without the scaling, and its primitive row is unchanged
        w = growth.bit_length() + 2
        rows = _split_rows(space)
        cols = [sum(row[j] << (i * w) for i, row in enumerate(rows)) for j in range(dim)]
        for v, fv, p, q in steps:
            pc = p * sum(map(mul, fv, cols))
            # y * pc for each y in -2..2, at index y (from the end when y < 0)
            multiples = (0, pc, 2 * pc, -2 * pc, -pc)
            cols = [q * c + multiples[y] for c, y in zip(cols, v)]
        rows = tuple(tuple(_primitive_ints(row)) for row in zip(*(_unpack(c, w, len(rows)) for c in cols)))
        return IsotropicSubspace(space, qm(rows), _ints=rows)
    for _ in range(32):
        draws = iter(_randints(rng, -3, 3, dim * (dim - 1) // 2))
        s_rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                x = next(draws)
                s_rows[i][j] = x
                s_rows[j][i] = -x
        # the split form squares to the identity, so A = F^{-1} S = F S is
        # just a signed row shuffle of S; J's row r holds 1 at column r mod m
        aug = [
            [int(r == c) + sign * x for c, x in enumerate(s_rows[j])] + [int(r % m == c) for c in range(m)]
            for r, (j, sign) in enumerate(index)
        ]
        # Gauss-Jordan on [I + A | J] leaves d * [I | (I + A)^-1 J]
        reduced, pivots, d = _echelon(aug)
        if pivots != list(range(dim)):
            continue
        # the diagonal's row i is column i of J; its image (2 (I + A)^-1 - I) J_i
        # is (2 N_i - d J_i) / d with N_i column i of the reduced right block
        ints, basis = [], []
        for i in range(m):
            nums = [2 * row[dim + i] - d * (r % m == i) for r, row in enumerate(reduced)]
            g = gcd(*nums) if d > 0 else -gcd(*nums)
            ints.append(tuple(x // g for x in nums))
            basis.append(tuple(Q(x, d) for x in nums))
        return IsotropicSubspace(space, tuple(basis), _ints=tuple(ints))
    raise InvariantViolation("all Cayley transform draws were singular")


def _tau_rows(rows, m: int) -> tuple:
    return tuple((*row[:m], *(-x for x in row[m:])) for row in rows)


def tau_image(v: IsotropicSubspace) -> IsotropicSubspace:
    """Image under the involution fixing the first summand and negating the
    second; kept integer rows, negated, stay primitive and are handed over.
    Rows not yet kept are not built here, so a subspace the invariant
    refuses still has an image."""
    m = v.space.block_dim
    ints = vars(v).get("_ints")
    return IsotropicSubspace(v.space, qm(_tau_rows(v.basis, m)), _ints=None if ints is None else _tau_rows(ints, m))


def _reduces_to_zero(ech: tuple, x) -> bool:
    """Whether the row x lies in the span of the echelon's rows, which have a
    pivot each: the Bareiss steps of their elimination, run on x as on an
    appended last row, leave x zero exactly then."""
    d = 1
    for prow, c in zip(ech[0], ech[1]):
        pv, f = prow[c], x[c]
        x = [(pv * y - f * z) // d for y, z in zip(x, prow)]
        d = pv
    return not any(x)


def subspaces_equal(a: IsotropicSubspace, b: IsotropicSubspace) -> bool:
    """Whether a and b lie in one space, have k basis rows each, and their
    2k rows stacked have rank k: for independent rows, the same span.  When
    a's rows are independent that holds exactly when every row of b lies in
    their span, so each row of b, as [B2 | B1], is reduced against a's kept
    echelon, and the first row that stays nonzero answers no; dependent rows
    of a rank the whole stack."""
    ra, rb = a._ints, b._ints
    k = len(ra)
    if a.space != b.space or len(rb) != k:
        return False
    ech = a._ech
    if len(ech[1]) < k:
        return rank([*ra, *rb]) == k
    m = a.space.block_dim
    return all(_reduces_to_zero(ech, row[m:] + row[:m]) for row in rb)


class SampleReport(Record):
    lemma: str  # plain-language statement of the verified law
    samples: int
    violations: int
    seed: int


def _check_sample_count(sample_count: int) -> None:
    if sample_count < 0:
        raise InvalidInput(f"sample count must be nonnegative, not {sample_count}")
    if sample_count > MAX_SAMPLES:
        raise BoundExceeded(f"sample count {sample_count} is above the bound {MAX_SAMPLES}")


def check_equal_intersections(space: DoubledSpace, sample_count: int, seed: int) -> SampleReport:
    """Sample maximal isotropics and verify equal intersection dimensions.

    A count above ``MAX_SAMPLES`` is refused with BoundExceeded before the
    first draw."""
    _check_sample_count(sample_count)
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
    its invariant is maximal.  A count above ``MAX_SAMPLES`` is refused
    with BoundExceeded before the first draw."""
    if space.kind != "symplectic":
        raise InvalidInput("the involution check applies to symplectic doubled spaces")
    _check_sample_count(sample_count)
    violations = 0
    checked = 0
    # drawn one at a time as they are checked; the two base points come last
    draws = (random_maximal_isotropic(space, seed * 2_000_003 + i) for i in range(sample_count))
    for v in chain(draws, (split_subspace(space), diagonal_subspace(space))):
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
