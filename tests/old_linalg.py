"""The Fraction routines the integer core replaced, kept as oracles.

The Fraction vector helpers (dot product, sum, difference, scaling,
negation, transpose and matrix-vector product), the Fraction coroot,
reduced row echelon form and inverse by Gauss-Jordan over Fraction, and the
Fraction matrix product and identity; the package itself no longer has them.
Also ``minors_gcd``, one Bareiss elimination per k x k minor, which decided
smoothness before the Smith normal form did.  And the reference-lattice
path before each reader solved once per call:
``coords_in_basis`` on a process-wide cache of dual rows, and the
per-generator ``_primitivize`` built on it.  Both read the two-pass
``_dual_rows`` kept here verbatim, one elimination to pick the unit-vector
completion and one Gauss-Jordan to invert, so these oracles do not follow
the package's one-elimination kernel.
"""

from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations
from math import gcd

from weylfans.errors import InvalidInput
from weylfans.linalg import _common_ints, _echelon, _int_mat_vec, _int_unit, is_zero_vector, primitive_direction


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


def _dual_rows(rows):
    """Integer rows N and one denominator d > 0; row i of N/d evaluates the
    i-th coordinate of a vector in an extended basis.

    The independent rows are completed to a basis E of the ambient space by
    unit vectors, taken greedily in index order, and N/d is the inverse of
    the transpose of E.  The first len(rows) rows of N/d give the
    coordinates in the rows; the others vanish exactly on their span.  The
    greedy choice takes e_j exactly when column j adds nothing to the rank
    of the columns after it, that is when j is no pivot of the rows read
    from the last column backwards, so one elimination finds it.  N and d
    are read off the fraction-free Gauss-Jordan form of [E^T | I], whose
    pivot rows are d * [I | (E^T)^-1].
    """
    dim = len(rows[0])
    _, back, _ = _echelon([row[::-1] for row in rows], reduced=False)
    if len(back) == len(rows):
        skipped = {dim - 1 - c for c in back}
        extended = [*rows, *(_int_unit(dim, j) for j in range(dim) if j not in skipped)]
        aug = [[*col, *_int_unit(dim, i)] for i, col in enumerate(zip(*extended))]
        a, pivots, d = _echelon(aug)
        if pivots == list(range(dim)):
            sign = 1 if d > 0 else -1
            return tuple(tuple(sign * x for x in row[dim:]) for row in a), sign * d
    raise InvalidInput("basis rows are linearly dependent")


_dual_basis = lru_cache(maxsize=8192)(_dual_rows)


def coords_in_basis(basis_rows, v):
    """Coordinates of v in a linearly independent spanning set, or None if off-span."""
    if not basis_rows:
        return () if is_zero_vector(v) else None
    if len(v) != len(basis_rows[0]):
        return None
    dots, ds = _int_mat_vec(*_dual_basis(basis_rows), v)
    k = len(basis_rows)
    if any(dots[k:]):
        return None
    return tuple(Q(x, ds) for x in dots[:k])


def _old_primitivize(g, lattice):
    if lattice is None:
        return primitive_direction(g)
    coords = coords_in_basis(lattice, g)
    if coords is None:
        raise InvalidInput(f"generator {g} lies outside the span of the reference lattice")
    rows, s = _common_ints(lattice)
    dots, den = _int_mat_vec(tuple(zip(*rows)), s, primitive_direction(coords))
    return tuple(Q(x, den) for x in dots)


def minors_gcd(m, k):
    """gcd of all k x k minors of an integer matrix with k rows."""
    if len(m) != k:
        raise InvalidInput("minors_gcd needs a matrix with exactly k rows")
    cols = len(m[0]) if m else 0
    g = 0
    for sel in combinations(range(cols), k):
        _, pivots, d = _echelon([[row[c] for c in sel] for row in m], reduced=False)
        if len(pivots) == k:
            g = gcd(g, abs(d))
            if g == 1:
                return 1
    return g
