"""The isotropic samplers as they were before the Cayley transform took a
forward elimination and a back substitution, and before a sampled
subspace kept its basis as integer rows: the oracle for the draws, the
base points and the involution image.  Every subspace here is built
through the public constructor, with its Fraction basis written at
construction.  The helpers the old code shared with the package
(`_form_index`, `_randints`, `_split_rows`, `_diagonal_rows`, `_unpack`,
`_tau_rows`) are unchanged and imported from it."""

import random
from fractions import Fraction as Q
from math import gcd
from operator import mul

from weylfans.errors import BoundExceeded, InvariantViolation
from weylfans.isotropic import (
    MAX_HALF_RANK,
    IsotropicSubspace,
    _diagonal_rows,
    _form_index,
    _randints,
    _split_rows,
    _tau_rows,
    _unpack,
)
from weylfans.linalg import _echelon, _primitive_ints, qm


def diagonal_subspace(space):
    rows = tuple(_diagonal_rows(space, i) for i in range(space.block_dim))
    return IsotropicSubspace(space, qm(rows), _ints=rows)


def split_subspace(space):
    rows = _split_rows(space)
    return IsotropicSubspace(space, qm(rows), _ints=rows)


def tau_image(v):
    m = v.space.block_dim
    ints = vars(v).get("_ints")
    return IsotropicSubspace(v.space, qm(_tau_rows(v.basis, m)), _ints=None if ints is None else _tau_rows(ints, m))


def cayley_augmented(space, rng):
    """The next draw's [I + A | J] from the stream, as the sampler builds it."""
    dim, m = space.dim, space.block_dim
    draws = iter(_randints(rng, -3, 3, dim * (dim - 1) // 2))
    s_rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            x = next(draws)
            s_rows[i][j] = x
            s_rows[j][i] = -x
    return [
        [int(r == c) + sign * x for c, x in enumerate(s_rows[j])] + [int(r % m == c) for c in range(m)]
        for r, (j, sign) in enumerate(_form_index(space))
    ]


def cayley_draw(space, seed):
    """(subspace, N, d, draws taken): the Gauss-Jordan draw, with N the
    reduced right block d (I + A)^-1 J as integer rows and d its last
    pivot, of the first nonsingular draw."""
    rng = random.Random(seed)
    dim, m = space.dim, space.block_dim
    for attempt in range(32):
        # Gauss-Jordan on [I + A | J] leaves d * [I | (I + A)^-1 J]
        reduced, pivots, d = _echelon(cayley_augmented(space, rng))
        if pivots != list(range(dim)):
            continue
        ints, basis = [], []
        for i in range(m):
            nums = [2 * row[dim + i] - d * (r % m == i) for r, row in enumerate(reduced)]
            g = gcd(*nums) if d > 0 else -gcd(*nums)
            ints.append(tuple(x // g for x in nums))
            basis.append(tuple(Q(x, d) for x in nums))
        v = IsotropicSubspace(space, tuple(basis), _ints=tuple(ints))
        return v, [row[dim:] for row in reduced], d, attempt + 1
    raise InvariantViolation("all Cayley transform draws were singular")


def random_maximal_isotropic(space, seed):
    if space.half_rank > MAX_HALF_RANK:
        raise BoundExceeded(f"half rank {space.half_rank} is above the sampling bound {MAX_HALF_RANK}")
    if space.kind == "orthogonal":
        return cayley_draw(space, seed)[0]
    rng = random.Random(seed)
    dim = space.dim
    index = _form_index(space)
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
        growth *= q + abs(p) * max(map(abs, v)) * sum(map(abs, fv))
    w = growth.bit_length() + 2
    rows = _split_rows(space)
    cols = [sum(row[j] << (i * w) for i, row in enumerate(rows)) for j in range(dim)]
    for v, fv, p, q in steps:
        pc = p * sum(map(mul, fv, cols))
        multiples = (0, pc, 2 * pc, -2 * pc, -pc)
        cols = [q * c + multiples[y] for c, y in zip(cols, v)]
    rows = tuple(tuple(_primitive_ints(row)) for row in zip(*(_unpack(c, w, len(rows)) for c in cols)))
    return IsotropicSubspace(space, qm(rows), _ints=rows)
