"""The isotropic samplers on integer rows against the Fraction code they
replaced.

The oracles below are the previous implementations: the orthogonal Cayley
transform through a Fraction ``inverse`` and two ``mat_mul`` calls, the
symplectic transvections with the uncached form index, and primitive
integer rows through ``primitive_direction`` (the package reads them with
``linalg._primitive_ints``).  Every draw must give the same basis, entry
for entry and as ``Fraction`` entries, the same invariant and the same
involution verdict, and the integer rows a draw and its involution image
keep must be those read off their bases.  Equality is checked against the
full stacked rank also on the equal and nearly equal pairs the samples
almost never reach, and the involution check against the version that
held every sample in a list.  The symplectic draw, which takes each row's
gcd once after the last transvection, is checked against the loop that
took it after every transvection, and the echelon a subspace keeps for the
invariant and equality against the eliminations run afresh on each call.
"""

import random
from fractions import Fraction as Q
from math import gcd
from operator import mul

import pytest
from old_linalg import _old_inverse, identity_matrix, mat_mul, transpose, vadd

from weylfans import isotropic
from weylfans.errors import BoundExceeded, InvalidInput, InvariantViolation
from weylfans.isotropic import (
    MAX_HALF_RANK,
    IsotropicSubspace,
    SampleReport,
    _randints,
    diagonal_subspace,
    intersection_invariant,
    orthogonal_doubled,
    random_maximal_isotropic,
    split_subspace,
    subspaces_equal,
    symplectic_doubled,
    tau_fixed_locus_check,
    tau_image,
)
from weylfans.linalg import _echelon, _primitive_ints, det, primitive_direction, qm, rank


# --- oracles: the Fraction code ---------------------------------------------


def old_form_index(space):
    m = space.block_dim
    out = []
    if space.kind == "symplectic":
        n = space.half_rank
        out += [(n + i, 1) for i in range(n)]
        out += [(i, -1) for i in range(n)]
        out += [(m + n + i, -1) for i in range(n)]
        out += [(m + i, 1) for i in range(n)]
    else:
        out += [(m - 1 - i, 1) for i in range(m)]
        out += [(2 * m - 1 - i, -1) for i in range(m)]
    return out


def old_int_rows(basis):
    return [[int(x) for x in primitive_direction(row)] for row in basis]


def old_antisymmetric_draw(space, rng):
    s_rows = [[0] * space.dim for _ in range(space.dim)]
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            x = rng.randint(-3, 3)
            s_rows[i][j] = x
            s_rows[j][i] = -x
    return qm([[Q(sign * s_rows[j][c]) for c in range(space.dim)] for j, sign in old_form_index(space)])


def old_random_maximal_isotropic(space, seed):
    rng = random.Random(seed)
    if space.kind == "symplectic":
        rows = [[int(x) for x in row] for row in split_subspace(space).basis]
        for _ in range(space.half_rank * (2 * space.half_rank + 1)):
            v = [rng.randint(-2, 2) for _ in range(space.dim)]
            while all(x == 0 for x in v):
                v = [rng.randint(-2, 2) for _ in range(space.dim)]
            p, q = rng.randint(-9, 9), rng.randint(1, 4)
            fv = [s * v[j] for j, s in old_form_index(space)]
            new_rows = []
            for row in rows:
                pairing = sum(a * b for a, b in zip(row, fv))
                new = [q * x + p * pairing * y for x, y in zip(row, v)]
                g = 0
                for x in new:
                    g = gcd(g, abs(x))
                new_rows.append([x // g for x in new] if g > 1 else new)
            rows = new_rows
        return IsotropicSubspace(space=space, basis=qm(rows))
    for _ in range(32):
        a = old_antisymmetric_draw(space, rng)
        ident = identity_matrix(space.dim)
        i_plus = qm([vadd(r1, r2) for r1, r2 in zip(ident, a)])
        try:
            i_plus_inv = _old_inverse(i_plus)
        except InvalidInput:
            continue
        i_minus = qm([tuple(x - 2 * y for x, y in zip(r1, a_row)) for r1, a_row in zip(i_plus, a)])
        cayley = mat_mul(i_minus, i_plus_inv)
        base = diagonal_subspace(space).basis
        return IsotropicSubspace(space=space, basis=mat_mul(base, transpose(cayley)))
    raise InvariantViolation("all Cayley transform draws were singular")


def old_invariant(v):
    rows = old_int_rows(v.basis)
    m = v.space.block_dim
    form = old_form_index(v.space)
    assert rank(rows) == m
    for r in rows:
        for s in rows:
            assert sum(r[i] * sign * s[j] for i, (j, sign) in enumerate(form)) == 0
    k1 = m - rank([row[m:] for row in rows])
    assert k1 == m - rank([row[:m] for row in rows])
    return k1


def old_equal(a, b):
    stacked = old_int_rows(a.basis) + old_int_rows(b.basis)
    return rank(stacked) == len(a.basis) == len(b.basis)


def old_tau_fixed(v):
    return old_equal(v, tau_image(v))


def old_tau_fixed_locus_check(space, sample_count, seed):
    samples = [random_maximal_isotropic(space, seed * 2_000_003 + i) for i in range(sample_count)]
    samples.append(split_subspace(space))
    samples.append(diagonal_subspace(space))
    violations = 0
    for v in samples:
        if subspaces_equal(v, tau_image(v)) != (intersection_invariant(v) == space.half_rank):
            violations += 1
    return SampleReport(
        lemma="the sign involution fixes a subspace exactly when its invariant is maximal",
        samples=len(samples),
        violations=violations,
        seed=seed,
    )


# --- the differential checks -------------------------------------------------


def assert_same_draw(space, seed):
    new = random_maximal_isotropic(space, seed)
    old = old_random_maximal_isotropic(space, seed)
    assert new.space == space
    assert new.basis == old.basis
    assert all(type(x) is Q for row in new.basis for x in row)
    assert [_primitive_ints(row) for row in new.basis] == old_int_rows(old.basis)
    for v in (new, tau_image(new)):
        assert [list(row) for row in v._ints] == [_primitive_ints(row) for row in v.basis]
    assert intersection_invariant(new) == old_invariant(old)
    assert subspaces_equal(new, tau_image(new)) == old_tau_fixed(old)


# (kind, half rank, draws): 671 draws in all; the symplectic half ranks past
# 4 check the packed columns where their fields are widest, up to the bound
SPACES = (
    ("orthogonal", 1, 120),
    ("orthogonal", 2, 100),
    ("orthogonal", 3, 40),
    ("symplectic", 1, 100),
    ("symplectic", 2, 100),
    ("symplectic", 3, 100),
    ("symplectic", 4, 100),
    ("symplectic", 5, 6),
    ("symplectic", 6, 3),
    ("symplectic", 8, 1),
    ("symplectic", MAX_HALF_RANK, 1),
)


@pytest.mark.parametrize("kind,n,count", SPACES)
def test_seeded_draws_match_fraction_sampler(kind, n, count):
    space = orthogonal_doubled(n) if kind == "orthogonal" else symplectic_doubled(n)
    rng = random.Random(1000 * n + len(kind))
    seeds = list(range(count // 2)) + [rng.randrange(2**31) for _ in range(count - count // 2)]
    for seed in seeds:
        assert_same_draw(space, seed)


def first_draw_singular(space, seed):
    a = old_antisymmetric_draw(space, random.Random(seed))
    return det(qm([vadd(r1, r2) for r1, r2 in zip(identity_matrix(space.dim), a)])) == 0


def test_singular_first_draws_take_the_redraw_path():
    space = orthogonal_doubled(1)
    seeds = [seed for seed in range(2000) if first_draw_singular(space, seed)]
    assert len(seeds) == 22
    for seed in seeds:
        assert_same_draw(space, seed)


def test_int_rows_match_primitive_direction():
    rng = random.Random(11)
    for _ in range(300):
        dim = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(1, 5)):
            row = [Q(rng.randint(-30, 30), rng.randint(1, 12)) * rng.randint(0, 1) for _ in range(dim)]
            if not any(row):
                row[rng.randrange(dim)] = Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            rows.append(tuple(row))
        assert [_primitive_ints(row) for row in qm(rows)] == old_int_rows(qm(rows))
        rows.insert(rng.randrange(len(rows) + 1), (Q(0),) * dim)
        with pytest.raises(InvalidInput, match="^zero vector has no direction$"):
            old_int_rows(qm(rows))
        with pytest.raises(InvalidInput, match="^zero vector has no direction$"):
            [_primitive_ints(row) for row in qm(rows)]


@pytest.mark.parametrize("make", [symplectic_doubled, orthogonal_doubled])
def test_half_rank_bound(make):
    # the bound is checked before the first draw; the largest allowed half
    # rank still samples
    with pytest.raises(BoundExceeded):
        random_maximal_isotropic(make(MAX_HALF_RANK + 1), 0)
    v = random_maximal_isotropic(make(MAX_HALF_RANK), 0)
    assert len(v.basis) == make(MAX_HALF_RANK).block_dim


# --- equality on the pairs the samples rarely reach -------------------------


def hand_built(v, rows):
    """A subspace of v's space with the given rows and no kept integer rows."""
    return IsotropicSubspace(space=v.space, basis=qm(rows))


def rescaled(rows, rng):
    scales = [Q(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5)) for _ in rows]
    out = [tuple(c * x for x in row) for c, row in zip(scales, rows)]
    rng.shuffle(out)
    return out


def assert_equal_as_oracle(a, b, expected):
    assert subspaces_equal(a, b) == old_equal(a, b) == expected
    assert subspaces_equal(b, a) == old_equal(b, a) == expected


@pytest.mark.parametrize("space", [symplectic_doubled(1), symplectic_doubled(3), orthogonal_doubled(2)])
def test_equality_matches_stacked_rank_on_near_pairs(space):
    rng = random.Random(space.dim)
    draw = random_maximal_isotropic(space, 5)
    for v in (split_subspace(space), diagonal_subspace(space), draw):
        assert [list(row) for row in v._ints] == [_primitive_ints(row) for row in v.basis]
        rows = list(v.basis)
        k = len(rows)
        # the same subspace, its rows permuted and rescaled; kept rows or not
        same = hand_built(v, rescaled(rows, rng))
        assert_equal_as_oracle(v, same, True)
        assert_equal_as_oracle(hand_built(v, rows), same, True)
        # dependent rows inside the span: the stacked rank is still len(a)
        inside = [tuple(x + 2 * y for x, y in zip(rows[0], rows[-1]))] * k
        assert_equal_as_oracle(v, hand_built(v, inside), True)
        # a row count that differs, in either order
        assert_equal_as_oracle(v, hand_built(v, rows[:-1]), False)
        assert_equal_as_oracle(v, hand_built(v, rows + rows[:1]), False)
        # equal up to the last row, which leaves the span
        other = next(r for r in diagonal_subspace(space).basis + split_subspace(space).basis if rank(rows + [r]) > k)
        assert_equal_as_oracle(v, hand_built(v, rows[:-1] + [other]), False)
        # and up to the last row of the other side, first rows shared
        assert_equal_as_oracle(v, hand_built(v, [other] + rows[1:]), False)


def test_equality_of_subspaces_of_different_spaces_is_false():
    a, b = split_subspace(symplectic_doubled(2)), split_subspace(symplectic_doubled(3))
    assert not subspaces_equal(a, b) and not subspaces_equal(b, a)
    # as many rows as a, but rows of the larger space
    c = hand_built(b, b.basis[: len(a.basis)])
    assert not subspaces_equal(a, c) and not subspaces_equal(c, a)


@pytest.mark.parametrize("seed", [0, 1, 7, 12])
def test_streamed_involution_check_matches_the_list_version(seed):
    space = symplectic_doubled(2 + seed % 2)
    assert tau_fixed_locus_check(space, 12, seed) == old_tau_fixed_locus_check(space, 12, seed)
    assert tau_fixed_locus_check(space, 0, seed) == old_tau_fixed_locus_check(space, 0, seed)


def test_involution_check_checks_each_draw_before_the_next(monkeypatch):
    events = []
    draw, invariant = isotropic.random_maximal_isotropic, isotropic.intersection_invariant
    monkeypatch.setattr(isotropic, "random_maximal_isotropic", lambda *a: events.append("draw") or draw(*a))
    monkeypatch.setattr(isotropic, "intersection_invariant", lambda v: events.append("check") or invariant(v))
    tau_fixed_locus_check(symplectic_doubled(2), 4, seed=3)
    assert events == ["draw", "check"] * 4 + ["check"] * 2


def test_kept_rows_are_still_checked():
    # integer rows kept on a subspace get the same maximal-isotropic checks
    space = symplectic_doubled(2)
    summand = tuple(tuple(int(i == j) for j in range(space.dim)) for i in range(4))
    with pytest.raises(InvalidInput, match="does not vanish"):
        intersection_invariant(IsotropicSubspace(space, qm(summand), _ints=summand))
    with pytest.raises(InvalidInput, match="maximal isotropic dimension"):
        intersection_invariant(IsotropicSubspace(space, qm(summand[:3]), _ints=summand[:3]))


# --- the draw stream ---------------------------------------------------------


@pytest.mark.parametrize("lo,hi", [(-2, 2), (-9, 9), (1, 4), (-3, 3)])
def test_getrandbits_draws_match_randint(lo, hi):
    # _randints repeats CPython's _randbelow_with_getrandbits, the draw behind
    # randint; a change there would change every sampled subspace
    for seed in range(200):
        old, new = random.Random(seed), random.Random(seed)
        assert _randints(new, lo, hi, 40) == [old.randint(lo, hi) for _ in range(40)]
        # and both leave the generator in the same state
        assert new.getstate() == old.getstate()


# --- packed columns -----------------------------------------------------------


def pack(fields, w):
    return sum(x << (i * w) for i, x in enumerate(fields))


@pytest.mark.parametrize("w", [2, 3, 8, 64, 1000])
def test_packed_fields_unpack_at_the_edges_of_their_width(w):
    # every field may reach 2**(w - 1) - 1 in absolute value
    top = 2 ** (w - 1) - 1
    rng = random.Random(w)
    cases = [
        [top],
        [-top],
        [0],
        [0, 0, 0],
        [top, -top, 0, -top, top],
        [-top, -top, -top],
        [top, top, top],
        [0, 0, -top],
        [-1, 1, -1, 0],
        [rng.randint(-top, top) for _ in range(12)],
    ]
    for fields in cases:
        assert isotropic._unpack(pack(fields, w), w, len(fields)) == fields


def test_a_field_past_its_width_is_refused():
    # the top field at 2**(w - 1) reads as -2**(w - 1) and leaves a carry
    w = 8
    for fields in ([2 ** (w - 1)], [0, 2 ** (w - 1)], [5, -(2 ** (w - 1)) - 1]):
        with pytest.raises(InvariantViolation, match="overflowed"):
            isotropic._unpack(pack(fields, w), w, len(fields))


# --- one gcd per row per draw -------------------------------------------------


def per_step_gcd_draw(space, seed):
    """The symplectic draw reducing every changed row to primitive after each
    transvection: (basis, kept integer rows)."""
    rng = random.Random(seed)
    index = isotropic._form_index(space)
    rows = isotropic._split_rows(space)
    for _ in range(space.half_rank * (2 * space.half_rank + 1)):
        v = _randints(rng, -2, 2, space.dim)
        while not any(v):
            v = _randints(rng, -2, 2, space.dim)
        p = _randints(rng, -9, 9, 1)[0]
        q = _randints(rng, 1, 4, 1)[0]
        if not p:
            continue
        fv = [s * v[j] for j, s in index]
        new_rows = []
        for row in rows:
            pairing = sum(map(mul, row, fv))
            if pairing:
                row = [q * x + p * pairing * y for x, y in zip(row, v)]
                g = gcd(*row)
                row = [x // g for x in row]
            new_rows.append(row)
        rows = new_rows
    rows = tuple(map(tuple, rows))
    return qm(rows), rows


# (half rank, seeds): 214 draws, about 1 s in all
GCD_DRAWS = ((1, 60), (2, 60), (3, 40), (4, 30), (5, 12), (6, 8), (MAX_HALF_RANK, 4))


@pytest.mark.parametrize("n,count", GCD_DRAWS)
def test_one_gcd_per_row_matches_the_per_step_gcd(n, count):
    space = symplectic_doubled(n)
    seeds = list(range(count // 2)) + [random.Random(n).randrange(2**31) for _ in range(count - count // 2)]
    for seed in seeds:
        v = random_maximal_isotropic(space, seed)
        basis, ints = per_step_gcd_draw(space, seed)
        assert v.basis == basis and v._ints == ints


# --- the kept echelon ---------------------------------------------------------


def fresh(v):
    """v with the same kept integer rows and no kept echelon."""
    return IsotropicSubspace(v.space, v.basis, _ints=v._ints)


def as_lists(ech):
    """An echelon with its rows as lists; a row elimination never touched is
    the given row itself, a tuple for kept rows."""
    rows, pivots, d = ech
    return [list(row) for row in rows], pivots, d


def stacked_echelon(v):
    m = v.space.block_dim
    return as_lists(_echelon([row[m:] + row[:m] for row in v._ints], reduced=False))


def kept_samples():
    out = []
    for space in (symplectic_doubled(1), symplectic_doubled(2), symplectic_doubled(3), orthogonal_doubled(2)):
        out += [split_subspace(space), diagonal_subspace(space)]
        out += [random_maximal_isotropic(space, seed) for seed in range(12)]
    return out


def test_invariant_then_equality_and_equality_then_invariant():
    for v in kept_samples():
        want_k, want_eq = old_invariant(v), old_equal(v, tau_image(v))
        # the perfbench order: the invariant fills the echelon, equality reads it
        first = fresh(v)
        assert intersection_invariant(first) == want_k
        assert as_lists(first._ech) == stacked_echelon(first)
        assert subspaces_equal(first, tau_image(first)) == want_eq
        # the involution check's order: equality fills it, the invariant reads it
        second = fresh(v)
        assert subspaces_equal(second, tau_image(second)) == want_eq
        assert as_lists(second._ech) == stacked_echelon(second)
        assert intersection_invariant(second) == want_k
        # a second call reads the same kept echelon and answers the same
        kept = second._ech
        assert intersection_invariant(second) == want_k and subspaces_equal(second, v)
        assert second._ech is kept


def test_kept_echelon_of_hand_built_subspaces():
    for v in kept_samples():
        rows = list(v.basis)
        built = hand_built(v, rows)
        assert subspaces_equal(built, v) and as_lists(built._ech) == stacked_echelon(v)
        assert intersection_invariant(built) == old_invariant(v)
        # dependent rows of a take the stacked-rank fallback, on either side
        dependent = hand_built(v, [rows[0]] * len(rows))
        for a, b in ((dependent, v), (v, dependent), (dependent, dependent)):
            assert subspaces_equal(a, b) == old_equal(a, b)
        if len(rows) > 1:
            assert len(dependent._ech[1]) == 1 and not subspaces_equal(dependent, dependent)


def test_kept_echelon_on_empty_foreign_and_ragged_subspaces():
    space, other = symplectic_doubled(2), symplectic_doubled(3)
    empty = IsotropicSubspace(space=space, basis=())
    assert subspaces_equal(empty, empty) == old_equal(empty, empty) is True
    assert empty._ech == ([], [], 1)
    assert not subspaces_equal(empty, split_subspace(space))
    with pytest.raises(InvalidInput, match="maximal isotropic dimension"):
        intersection_invariant(empty)
    # subspaces of two spaces are unequal, before any elimination
    a, b = split_subspace(space), split_subspace(other)
    assert not subspaces_equal(a, b) and not subspaces_equal(b, a)
    assert "_ech" not in vars(a) and "_ech" not in vars(b)
    # rows of the wrong length are refused, and leave no echelon behind
    v = random_maximal_isotropic(space, 3)
    ragged = hand_built(v, [row[:-1] for row in v.basis])
    for call in (lambda: subspaces_equal(ragged, v), lambda: subspaces_equal(v, ragged), lambda: intersection_invariant(ragged)):
        with pytest.raises(InvalidInput, match="basis rows must have 8 entries"):
            call()
    # the involution still takes them, and a zero row, building no rows for either
    for w in (ragged, hand_built(v, [[0] * 8] * 4)):
        image = tau_image(w)
        assert image.basis == qm([(*r[:4], *(-x for x in r[4:])) for r in w.basis])
        assert "_ints" not in vars(w) and "_ints" not in vars(image)
    assert "_ints" not in vars(ragged) and "_ech" not in vars(ragged)


def test_kept_echelon_leaves_equality_hash_and_repr_alone():
    for v in kept_samples()[:8]:
        before = (hash(v), repr(v))
        w = fresh(v)
        intersection_invariant(v)
        subspaces_equal(v, tau_image(v))
        assert "_ech" in vars(v) and "_ech" not in vars(w)
        assert v == w and w == v and (hash(v), repr(v)) == before == (hash(w), repr(w))


def test_appended_row_reduction_matches_rank():
    # a's independent rows with zero columns between their pivots, so a row of
    # b can be nonzero where a's elimination skipped a column
    rng = random.Random(23)
    tried = {True: 0, False: 0}
    for _ in range(400):
        k, width = rng.randint(1, 4), rng.randint(4, 8)
        cols = sorted(rng.sample(range(width), k + rng.randint(0, width - k)))
        rows = [[rng.randint(-5, 5) if c in cols and rng.random() < 0.7 else 0 for c in range(width)] for _ in range(k)]
        ech = _echelon(rows, reduced=False)
        if len(ech[1]) < k:
            continue
        inside = [sum(rng.randint(-3, 3) * r[c] for r in rows) for c in range(width)]
        outside = [x + rng.randint(-1, 1) * (c not in ech[1]) for c, x in enumerate(inside)]
        for x in (inside, outside):
            got = isotropic._reduces_to_zero(ech, x)
            assert got == (rank([*rows, x]) == k)
            tried[got] += 1
    assert min(tried.values()) > 100, tried
