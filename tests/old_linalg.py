"""The Fraction routines the integer core replaced, kept as oracles.

The Fraction vector helpers (dot product, sum, difference, scaling,
negation, transpose and matrix-vector product), the Fraction coroot,
reduced row echelon form and inverse by Gauss-Jordan over Fraction, and the
Fraction matrix product and identity; the package itself no longer has them.
"""

from fractions import Fraction as Q

from weylfans.errors import InvalidInput


def dot(x, y):
    if len(x) != len(y):
        raise InvalidInput("dimension mismatch in dot product")
    return sum((a * b for a, b in zip(x, y)), Q(0))


def vadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vscale(c, x):
    c = Q(c)
    return tuple(c * a for a in x)


def vneg(x):
    return tuple(-a for a in x)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def _old_coroot(beta):
    return vscale(Q(2) / dot(beta, beta), beta)


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
