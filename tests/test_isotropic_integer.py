"""The isotropic samplers on integer rows against the Fraction code they
replaced.

The oracles below are the previous implementations: the orthogonal Cayley
transform through a Fraction ``inverse`` and two ``mat_mul`` calls, the
symplectic transvections with the uncached form index, and primitive
integer rows through ``primitive_direction`` (the package reads them with
``linalg._primitive_ints``).  Every draw must give the same basis, entry
for entry and as ``Fraction`` entries, the same invariant and the same
involution verdict.
"""

import random
from fractions import Fraction as Q
from math import gcd

import pytest
from old_linalg import _old_inverse, identity_matrix, mat_mul, transpose, vadd

from weylfans.errors import BoundExceeded, InvalidInput, InvariantViolation
from weylfans.isotropic import (
    MAX_HALF_RANK,
    IsotropicSubspace,
    diagonal_subspace,
    intersection_invariant,
    orthogonal_doubled,
    random_maximal_isotropic,
    split_subspace,
    subspaces_equal,
    symplectic_doubled,
    tau_image,
)
from weylfans.linalg import _primitive_ints, det, primitive_direction, qm, rank


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


def old_tau_fixed(v):
    stacked = old_int_rows(v.basis) + old_int_rows(tau_image(v).basis)
    return rank(stacked) == len(v.basis)


# --- the differential checks -------------------------------------------------


def assert_same_draw(space, seed):
    new = random_maximal_isotropic(space, seed)
    old = old_random_maximal_isotropic(space, seed)
    assert new.space == space
    assert new.basis == old.basis
    assert all(type(x) is Q for row in new.basis for x in row)
    assert [_primitive_ints(row) for row in new.basis] == old_int_rows(old.basis)
    assert intersection_invariant(new) == old_invariant(old)
    assert subspaces_equal(new, tau_image(new)) == old_tau_fixed(old)


# (kind, half rank, draws): 660 draws in all
SPACES = (
    ("orthogonal", 1, 120),
    ("orthogonal", 2, 100),
    ("orthogonal", 3, 40),
    ("symplectic", 1, 100),
    ("symplectic", 2, 100),
    ("symplectic", 3, 100),
    ("symplectic", 4, 100),
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
