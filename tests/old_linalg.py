"""The Fraction matrix routines the integer core replaced, kept as oracles.

Reduced row echelon form and inverse by Gauss-Jordan over Fraction, and the
Fraction matrix product and identity; the package itself no longer has them.
"""

from fractions import Fraction as Q

from weylfans.errors import InvalidInput
from weylfans.linalg import dot, transpose


def _old_rref(rows):
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = Q(1) / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _old_inverse(m):
    n = len(m)
    aug = [list(row) + [Q(1 if i == j else 0) for j in range(n)] for i, row in enumerate(m)]
    aug, pivots = _old_rref(aug)
    if pivots != list(range(n)):
        raise InvalidInput("matrix is singular")
    return tuple(tuple(row[n:]) for row in aug)


def identity_matrix(n):
    return tuple(tuple(Q(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)
