"""The orthogonal draw's Cayley transform, a forward fraction-free
elimination of [I + A | J] and a back substitution in integers, against
the fraction-free Gauss-Jordan draw it replaced (`old_isotropic`).  At
every half rank from 1 to ``MAX_HALF_RANK``, fewer seeds at the larger
ones, a draw gives the same Fraction basis, the same primitive rows and
the same (N, d): N = d (I + A)^-1 J, read back off the kept integer rows,
and d, their denominator.  Pinned seeds cover a first draw whose forward
elimination swaps rows (a zero pivot) and a first draw that is singular,
so the sampler draws again."""

import random
from fractions import Fraction as Q

import old_isotropic
import pytest

from weylfans.isotropic import MAX_HALF_RANK, orthogonal_doubled, random_maximal_isotropic

# draws per half rank: 357 in all
COUNTS = {1: 120, 2: 100, 3: 60, 4: 30, 5: 20, 6: 12, 7: 6, 8: 4, 9: 3, 10: 2}

# seeds whose first [I + A | J] needs a row swap, by half rank
SWAP_SEEDS = {1: (1, 3), 2: (7, 9), 3: (3, 5)}

# seeds whose first draw is singular at half rank 1
SINGULAR_SEEDS = (26, 402, 437)


def row_swaps(aug):
    """The row swaps the forward Bareiss elimination of a square-left
    [M | J] takes, or None when M is singular."""
    a = [list(row) for row in aug]
    n, d, swaps = len(a), 1, 0
    for r in range(n):
        p = next((i for i in range(r, n) if a[i][r]), None)
        if p is None:
            return None
        if p != r:
            swaps += 1
            a[r], a[p] = a[p], [-x for x in a[r]]
        pv = a[r][r]
        for i in range(r + 1, n):
            f = a[i][r]
            a[i] = [(pv * x - f * y) // d for x, y in zip(a[i], a[r])]
        d = pv
    return swaps


def assert_same_cayley_draw(space, seed):
    new = random_maximal_isotropic(space, seed)
    old, n_old, d_old, _ = old_isotropic.cayley_draw(space, seed)
    assert new.basis == old.basis
    assert all(type(x) is Q for row in new.basis for x in row)
    assert new._ints == old._ints
    # the kept rows are 2 N_i - d J_i over d, one per column i of N
    nums, d = new._num
    m = space.block_dim
    assert d == d_old
    n_new = [[(col[r] + d * (r % m == i)) // 2 for i, col in enumerate(nums)] for r in range(space.dim)]
    assert n_new == n_old


@pytest.mark.parametrize("n", range(1, MAX_HALF_RANK + 1))
def test_draws_match_the_gauss_jordan_draw(n):
    space = orthogonal_doubled(n)
    rng = random.Random(7919 * n)
    count = COUNTS[n]
    seeds = list(range(count // 2)) + [rng.randrange(2**31) for _ in range(count - count // 2)]
    for seed in seeds:
        assert_same_cayley_draw(space, seed)


@pytest.mark.parametrize("n, seed", [(n, s) for n, seeds in SWAP_SEEDS.items() for s in seeds])
def test_draws_whose_elimination_swaps_rows(n, seed):
    space = orthogonal_doubled(n)
    assert row_swaps(old_isotropic.cayley_augmented(space, random.Random(seed))) > 0
    assert old_isotropic.cayley_draw(space, seed)[3] == 1
    assert_same_cayley_draw(space, seed)


@pytest.mark.parametrize("seed", SINGULAR_SEEDS)
def test_singular_first_draws_are_drawn_again(seed):
    space = orthogonal_doubled(1)
    assert row_swaps(old_isotropic.cayley_augmented(space, random.Random(seed))) is None
    assert old_isotropic.cayley_draw(space, seed)[3] > 1
    assert_same_cayley_draw(space, seed)
