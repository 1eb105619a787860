"""Exact linear algebra over the rationals and the integers.

Everything in the package funnels through this module.  Rank, determinant,
dual bases and the equality step of feasibility all run on one
fraction-free core, `_echelon`: rational rows are scaled to integer rows
by the one helper `_int_row`, which takes an all-int row as it is, and
reduced by Bareiss elimination with exact divisions.  A change of
coordinates reads a dual basis, `_dual_rows`, one such elimination:
integer rows over one denominator, so a coordinate is one integer dot
product.  Nothing here caches them: `cone` and `faces` fill a cone's rows,
and root systems keep their own.  Beside it sit `_primitive_ints`, the one
reduction of a row to coprime integers, Smith normal form over the integers,
which tracks one transform, the inverse of the column transform, and also
decides smoothness below full lattice rank (at full rank one determinant
off `_echelon` decides it), and one feasibility question, `_eliminate`: a yes/no
answer for a system of linear equalities and inequalities, on integer rows
throughout, which every cone question of the package reduces to.  Its dual
form, the double description of a cone in the nonnegative orthant,
`_extreme_ray_supports`, takes the same positive-times-negative step,
`_cancel`, on the same primitive rows, `_primitive_row`.
Fraction stays at every public function's inputs and outputs: the only
Fraction helpers left are the coercions at that boundary, `qv`, `qm` and
`_unit`, and no Fraction vector arithmetic.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import BoundExceeded, InvalidInput

Vector = tuple[Q, ...]
Matrix = tuple[Vector, ...]


def qv(entries: Iterable) -> Vector:
    """Coerce a sequence to an exact rational vector; Fraction entries are kept."""
    return tuple(x if type(x) is Q else Q(x) for x in entries)


def qm(rows: Iterable[Iterable]) -> Matrix:
    return tuple(qv(r) for r in rows)


def is_zero_vector(x: Sequence[Q]) -> bool:
    return all(a == 0 for a in x)


def _unit(dim: int, i: int, value=1) -> Vector:
    """The i-th standard basis vector of Q^dim, scaled by value."""
    v = [Q(0)] * dim
    v[i] = Q(value)
    return tuple(v)


def _int_unit(dim: int, i: int) -> tuple[int, ...]:
    """The i-th standard basis vector of Z^dim."""
    return tuple(int(i == j) for j in range(dim))


def _row_scale(row: Sequence) -> int:
    """The lcm of a row's denominators: the least integer making it integral."""
    return lcm(*(x.denominator for x in row))


def _scaled_ints(row: Sequence, s: int) -> list[int]:
    """The integers s * x for a rational row whose denominators divide s."""
    return [x.numerator * (s // x.denominator) for x in row]


def _int_row(row: Sequence) -> Sequence[int]:
    """An int or Fraction row scaled to integers by the least positive
    factor; an all-int row is returned itself, not copied."""
    return row if all(type(x) is int for x in row) else _scaled_ints(row, _row_scale(row))


def _common_ints(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Rational rows as integer rows over their one least common denominator."""
    s = lcm(*(_row_scale(row) for row in rows))
    return [_scaled_ints(row, s) for row in rows], s


def _int_mat_vec(rows: Sequence[Sequence[int]], d: int, v: Sequence) -> tuple[list[int], int]:
    """Apply the integer rows over d to a rational vector v: the integer dot
    products with v scaled to integers, and the one denominator they sit over."""
    s = _row_scale(v)
    w = _scaled_ints(v, s)
    return [sum(map(mul, row, w)) for row in rows], d * s


def _echelon(rows: Iterable[Sequence], reduced: bool = True) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) row reduction; returns (int rows, pivot columns, d).

    Each rational row is first scaled by the lcm of its denominators
    (`_int_row`), which keeps the row span; no given row is ever changed.
    Every update divides exactly by the previous pivot, so all entries stay
    integer minors of the scaled rows.  Swapping two rows negates one of
    them, which makes d, the last pivot (1 if there is none), the
    determinant of the scaled rows when they are square and nonsingular.
    With ``reduced`` all other rows are cleared at each pivot (fraction-free
    Gauss-Jordan) and the pivot rows equal d times the reduced row echelon
    form; otherwise only the rows below it are.
    """
    a = [_int_row(row) for row in rows]
    pivots: list[int] = []
    d = 1
    nrows = len(a)
    r = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], [-x for x in a[r]]
        prow = a[r]
        pv = prow[c]
        for i in range(0 if reduced else r + 1, nrows):
            if i != r:
                f = a[i][c]
                a[i] = [(pv * x - f * y) // d for x, y in zip(a[i], prow)]
        pivots.append(c)
        d = pv
        r += 1
        if r == nrows:
            break
    return a, pivots, d


def rank(m: Matrix) -> int:
    """Rank of a matrix given by rational or integer rows."""
    return len(_echelon(m, reduced=False)[1])


def det(m: Matrix) -> Q:
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvalidInput("determinant of a non-square matrix")
    _, pivots, d = _echelon(m, reduced=False)
    if len(pivots) < n:
        return Q(0)
    return Q(d, prod(_row_scale(row) for row in m))


def _dual_rows(rows: Sequence[Sequence], dim: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows N and one denominator d > 0; row i of N/d evaluates the
    i-th coordinate of a vector of Q^dim in an extended basis.

    The independent rows B are completed to a basis E of Q^dim by unit
    vectors, taken greedily in index order, and N/d is the inverse of the
    transpose of E: the first len(rows) rows of N/d give the coordinates in
    the rows, the others vanish exactly on their span, and the empty basis
    gives the unit rows over 1.  One fraction-free Gauss-Jordan elimination
    of [B^T | I] finds both: its pivot columns past B are the unit vectors
    of the greedy completion, and its rows are d * [I | (E^T)^-1].
    """
    k = len(rows)
    a, pivots, d = _echelon([[*(row[i] for row in rows), *_int_unit(dim, i)] for i in range(dim)])
    if pivots[:k] != list(range(k)):
        raise InvalidInput("basis rows are linearly dependent")
    sign = 1 if d > 0 else -1
    return tuple(tuple(sign * x for x in row[k:]) for row in a), sign * d


# --- integer lattice utilities ---------------------------------------------


def _primitive_ints(v: Sequence) -> list[int]:
    """A nonzero int or Fraction vector scaled to coprime integers, same direction."""
    ints = _int_row(v)
    g = gcd(*ints)
    if g == 0:
        raise InvalidInput("zero vector has no direction")
    return [x // g for x in ints]


def primitive_direction(v: Sequence[Q]) -> Vector:
    """Scale a nonzero rational vector to a coprime integer vector, same direction."""
    return tuple(map(Q, _primitive_ints(qv(v))))


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0.

    The pair is canonicalized so that t = 0 whenever a divides b; reduction
    loops rely on divisible entries being cleared by elementary operations.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    if a != 0 and old_r != 0:
        step = a // old_r
        rem = old_t % abs(step)
        shift = (old_t - rem) // step
        old_t = rem
        old_s = old_s + shift * (b // old_r)
    return old_r, old_s, old_t


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith normal form with column transform.

    Returns (diag, t_inv) such that the input equals S @ D @ T for some
    unimodular S and T, D is diagonal with d1 | d2 | ... (trailing zeros
    allowed), and t_inv is the inverse of T, the product of the column
    operations.  Only T^-1 is tracked because cokernel computations never
    need S, and a caller that needs T inverts t_inv: the integer row span of
    the input is the Z-span of {diag[i] * T[i]}.
    """
    a = [[int(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    t_inv = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    limit = min(nrows, ncols)

    def row_combine(i: int, j: int, s: int, u: int, p: int, q: int) -> None:
        # (row_i, row_j) <- (s*row_i + u*row_j, -q*row_i + p*row_j); untracked
        for c in range(ncols):
            x, y = a[i][c], a[j][c]
            a[i][c] = s * x + u * y
            a[j][c] = -q * x + p * y

    def col_combine(i: int, j: int, s: int, u: int, p: int, q: int) -> None:
        # A <- A*C with C = [[s, -q], [u, p]] on columns (i, j), det C = 1;
        # T_inv = C_total takes the same column operation
        for rows in (a, t_inv):
            for row in rows:
                x, y = row[i], row[j]
                row[i] = s * x + u * y
                row[j] = -q * x + p * y

    def col_add(i: int, j: int) -> None:
        # A <- A*(I + E_ji): column i += column j, in A and in T_inv
        for rows in (a, t_inv):
            for row in rows:
                row[i] += row[j]

    def reduce_at(k: int) -> bool:
        pivot = next(((i, j) for i in range(k, nrows) for j in range(k, ncols) if a[i][j] != 0), None)
        if pivot is None:
            return False
        pi, pj = pivot
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for row in (*a, *t_inv):
                row[k], row[pj] = row[pj], row[k]
        while True:
            for i in range(k + 1, nrows):
                if a[i][k] != 0:
                    g, s, u = _exgcd(a[k][k], a[i][k])
                    row_combine(k, i, s, u, a[k][k] // g, a[i][k] // g)
            for j in range(k + 1, ncols):
                if a[k][j] != 0:
                    g, s, u = _exgcd(a[k][k], a[k][j])
                    col_combine(k, j, s, u, a[k][k] // g, a[k][j] // g)
            if all(a[i][k] == 0 for i in range(k + 1, nrows)):
                break
        return True

    r = 0
    while r < limit and reduce_at(r):
        r += 1

    # enforce the divisibility chain; each fix strictly shrinks a diagonal entry
    while True:
        bad = next(
            (i for i in range(r - 1) if a[i + 1][i + 1] % a[i][i] != 0),
            None,
        )
        if bad is None:
            break
        col_add(bad, bad + 1)
        k = bad
        while k < r and reduce_at(k):
            k += 1

    # a negative diagonal entry turns positive by an untracked row negation
    return [abs(a[i][i]) for i in range(limit)], t_inv


def saturation_basis(vectors: Sequence[Sequence[Q]]) -> Matrix:
    """Basis of the saturated lattice Z^d intersect span_Q(vectors).

    Input vectors may be rational; they are rescaled to integers first.
    """
    vecs = [_primitive_ints(v) for v in map(qv, vectors) if any(v)]
    if not vecs:
        return ()
    diag, t_inv = smith_normal_form(vecs)
    k = sum(1 for d in diag if d != 0)
    # the dual rows of t_inv's columns are (t_inv)^-1 = T, over d = 1
    # because t_inv is unimodular
    t, _ = _dual_rows(list(zip(*t_inv)), len(t_inv))
    return qm(t[:k])


# --- exact linear feasibility (Fourier-Motzkin) and double description ---------

Constraint = tuple[Vector, Q]  # (coeffs, rhs), meaning coeffs . x >= rhs

# Rows one Fourier-Motzkin step of `_eliminate` may make, refused above the
# bound with BoundExceeded before the step is taken.  A step can square the
# system: a two-cone fan document in 10 dimensions steps from 2,921 rows to
# 735,450, which took 10 s, and in 12 dimensions exhausts memory.  The
# largest step the library's tests take makes 1,106 rows, its casebook and
# benchmark 14, and a step of 20,000 rows of 17 entries takes about 0.3 s.
MAX_FM_ROWS = 20_000


def _primitive_row(row: Sequence[int]) -> tuple[int, ...]:
    """An integer row divided by the gcd of its entries; a zero row is kept."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def _cancel(lo: Sequence[int], a: int, hi: Sequence[int], b: int) -> tuple[int, ...]:
    """b * lo + a * hi for a, b > 0, primitive: the one positive-times-negative
    step of both eliminations here.  Fourier-Motzkin passes two rows
    (coeffs, rhs) with a = lo[v] and b = -hi[v], so the sum drops x_v; the
    double description passes two rays with a and -b their values on a new
    constraint, so the sum lies on its hyperplane."""
    return _primitive_row([b * x + a * y for x, y in zip(lo, hi)])


def _eliminate(num_vars: int, eqs: Sequence[Constraint], ineqs: Sequence[Constraint]) -> bool:
    """Whether {x : eq . x = rhs, ineq . x >= rhs} has a point, decided exactly.

    The equalities go first, in one fraction-free Gauss-Jordan elimination of
    [eq | rhs]: its pivot rows are d times the reduced row echelon form, so
    each pivot variable is substituted out of every inequality scaled by
    |d|, a positive factor that keeps the inequality.  What is left, in the
    free variables, goes through Fourier-Motzkin elimination on primitive
    integer rows (coeffs, rhs) (Schrijver, Theory of Linear and Integer
    Programming, 12.2); a row with zero coefficients reads 0 >= rhs, and the
    primitive one with rhs 1 is the infeasible one.  The last variable is
    decided by its tightest lower and upper bounds instead of their pairs.
    A step that would make more than ``MAX_FM_ROWS`` rows is refused with
    BoundExceeded.
    """
    rows = [_int_row((*coeffs, rhs)) for coeffs, rhs in ineqs]
    free_vars = range(num_vars)
    if eqs:
        a, pivots, d = _echelon([(*coeffs, rhs) for coeffs, rhs in eqs])
        if pivots and pivots[-1] == num_vars:
            return False  # a row reads 0 = rhs with rhs nonzero
        sign = 1 if d > 0 else -1
        free_vars = [j for j in range(num_vars) if j not in pivots]
        projected = []
        for row in rows:
            # |d| row minus the pivot rows' multiples: zero on every pivot column
            t = [sign * d * x for x in row]
            for c, prow in zip(pivots, a):
                if row[c]:
                    f = sign * row[c]
                    t = [x - f * y for x, y in zip(t, prow)]
            projected.append([*(t[j] for j in free_vars), t[-1]])
        rows = projected

    infeasible = (0,) * len(free_vars) + (1,)
    system = {_primitive_row(row) for row in rows}
    active = list(range(len(free_vars)))
    while active and infeasible not in system:
        # eliminate the variable with the fewest pos*neg pairings
        best, best_cost = None, None
        for v in active:
            pos = sum(1 for row in system if row[v] > 0)
            neg = sum(1 for row in system if row[v] < 0)
            cost = pos * neg - pos - neg
            if best_cost is None or cost < best_cost:
                best, best_cost = v, cost
        v = best
        lowers = []  # row[v] > 0: x_v >= (rhs - sum of the other terms) / row[v]
        uppers = []  # row[v] < 0: x_v <= the same
        rest = []
        for row in system:
            (rest if row[v] == 0 else lowers if row[v] > 0 else uppers).append(row)
        if len(active) == 1:
            # the last variable: the pairs' rows read 0 >= rhs exactly when
            # every lower bound rhs/row[v] lies at or below every upper
            # bound, so the tightest two decide, found in one pass over the
            # rows by comparing cross products (row[v] > 0 on lowers, < 0 on uppers)
            if any(row[-1] > 0 for row in rest):
                return False
            if not lowers or not uppers:
                return True
            a, b = lowers[0][v], lowers[0][-1]
            for row in lowers:
                if row[-1] * a > b * row[v]:
                    a, b = row[v], row[-1]
            c, e = uppers[0][v], uppers[0][-1]
            for row in uppers:
                if row[-1] * c < e * row[v]:
                    c, e = row[v], row[-1]
            return b * c >= e * a
        made = len(rest) + len(lowers) * len(uppers)
        if made > MAX_FM_ROWS:
            raise BoundExceeded(f"a Fourier-Motzkin step would make {made} rows, above the bound {MAX_FM_ROWS}")
        # lower <= upper, each pair scaled by a positive factor
        system = {*rest, *(_cancel(lo, lo[v], hi, -hi[v]) for lo in lowers for hi in uppers)}
        active.remove(v)

    return all(row[-1] <= 0 for row in system)


def _extreme_ray_supports(
    num_vars: int, eqs: Sequence[Sequence[int]], ineqs: Sequence[Sequence[int]], bound: int
) -> Optional[list[int]]:
    """The supports, as bitmasks of coordinates, of the extreme rays of the
    pointed cone {w >= 0 : eq . w = 0, ineq . w >= 0} on integer rows; None
    once the ray list passes ``bound``.

    Double description (Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda
    and Prodon, "Double description method revisited", 1996): start from
    the unit rays of the orthant and add one row at a time.  Each ray keeps
    the bitmask of the constraints it is tight on, the orthant's first.  A
    ray positive and a ray negative on the new row are combined by
    `_cancel` only when they are adjacent, which is when no third ray is
    tight on every constraint both are; an equality keeps only the rays on
    its hyperplane and these combinations.  The rays stay nonnegative, so a
    ray's support is the complement of its orthant bits.
    """
    full = (1 << num_vars) - 1
    rays = [(_int_unit(num_vars, i), full & ~(1 << i)) for i in range(num_vars)]
    rows = [(row, True) for row in eqs] + [(row, False) for row in ineqs]
    for bit, (row, equality) in enumerate(rows, num_vars):
        values = [sum(map(mul, row, ray)) for ray, _ in rays]
        kept = []
        for (ray, tight), x in zip(rays, values):
            if x == 0:
                kept.append((ray, tight | 1 << bit))
            elif x > 0 and not equality:
                kept.append((ray, tight))
        pos = [i for i, x in enumerate(values) if x > 0]
        neg = [i for i, x in enumerate(values) if x < 0]
        for i in pos:
            for j in neg:
                common = rays[i][1] & rays[j][1]
                if not any(t & common == common for n, (_, t) in enumerate(rays) if n != i and n != j):
                    kept.append((_cancel(rays[i][0], values[i], rays[j][0], -values[j]), common | (1 << bit)))
        if len(kept) > bound:
            return None
        rays = kept
    return [full & ~tight for _, tight in rays]
