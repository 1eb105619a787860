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
the package's one-elimination kernel.  Then the Smith normal form that kept
both T and T^-1 in step, with the ``saturation_basis`` that read T off it,
and the ``_lattice_ints`` that read coordinates off the lattice's full dual
rows (the package's one-elimination ``linalg._dual_rows``; the name
``_dual_rows`` here is the two-pass oracle); their refusals write a
vector as the package's do, as (1/2, -3).  Last, the Fraction
Fourier-Motzkin ``_old_feasible`` with its witness, which the integer
yes/no ``_eliminate`` replaced, and on it the block valuation-point system
with one weight variable per generator of every cone, which the package's
one-cone question replaced.  Last, the Fraction cone path: the per-call
[L^T | V^T] elimination ``echelon_lattice_ints``, and on it the ``cone``
that deduplicated and sorted Fraction generators and solved each cone's
lattice (``fraction_cone``), and the ray names that hashed each generator
object twice (``fraction_ray_keys``).
"""

from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import mul

from weylfans import linalg
from weylfans.errors import InvalidInput
from weylfans.linalg import (
    _common_ints, _echelon, _exgcd, _int_mat_vec, _int_unit, _unit, is_zero_vector, primitive_direction, qm, qv,
)


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


def _written(v):
    """A vector as the package's refusals write it, as (1/2, -3)."""
    return f"({', '.join(map(str, v))})"


def _old_primitivize(g, lattice):
    if lattice is None:
        return primitive_direction(g)
    coords = coords_in_basis(lattice, g)
    if coords is None:
        raise InvalidInput(f"generator {_written(g)} lies outside the span of the reference lattice")
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


def smith_normal_form(m):
    """Smith normal form with column transform.

    Returns (diag, t, t_inv) such that the input equals S @ D @ T for some
    unimodular S, D is diagonal with d1 | d2 | ... (trailing zeros allowed),
    t is the unimodular T and t_inv its inverse.  Only T is tracked because
    cokernel computations never need S: the integer row span of the input is
    the Z-span of {diag[i] * t[i]}.
    """
    a = [[int(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    t = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
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
        # keep T = C_total^{-1} and T_inv = C_total in sync
        for r in range(nrows):
            x, y = a[r][i], a[r][j]
            a[r][i] = s * x + u * y
            a[r][j] = -q * x + p * y
        for c in range(ncols):
            x, y = t[i][c], t[j][c]
            t[i][c] = p * x + q * y
            t[j][c] = -u * x + s * y
        for r in range(ncols):
            x, y = t_inv[r][i], t_inv[r][j]
            t_inv[r][i] = s * x + u * y
            t_inv[r][j] = -q * x + p * y

    def col_add(i: int, j: int) -> None:
        # A <- A*(I + E_ji): column i += column j
        for r in range(nrows):
            a[r][i] += a[r][j]
        for c in range(ncols):
            t[j][c] -= t[i][c]
        for r in range(ncols):
            t_inv[r][i] += t_inv[r][j]

    def reduce_at(k: int) -> bool:
        pivot = next(((i, j) for i in range(k, nrows) for j in range(k, ncols) if a[i][j] != 0), None)
        if pivot is None:
            return False
        pi, pj = pivot
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for r in range(nrows):
                a[r][k], a[r][pj] = a[r][pj], a[r][k]
            t[k], t[pj] = t[pj], t[k]
            for r in range(ncols):
                t_inv[r][k], t_inv[r][pj] = t_inv[r][pj], t_inv[r][k]
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

    for i in range(limit):
        if a[i][i] < 0:
            for c in range(ncols):
                a[i][c] = -a[i][c]
    return [a[i][i] for i in range(limit)], t, t_inv


def saturation_basis(vectors):
    """Basis of the saturated lattice Z^d intersect span_Q(vectors).

    Input vectors may be rational; they are rescaled to integers first.
    """
    vecs = [primitive_direction(v) for v in vectors if not is_zero_vector(qv(v))]
    if not vecs:
        return ()
    diag, t, _ = smith_normal_form(vecs)
    k = sum(1 for d in diag if d != 0)
    return qm(t[:k])


def _lattice_ints(lattice, vectors, name="vector"):
    """Coordinates in the lattice rows (the standard lattice for None), as
    integer rows over their least common denominator, from one dual-row
    solve whose rows past the rank vanish exactly on the span.  A vector of
    another length (checked before the solve) or off the span is refused,
    named by ``name.format(v)``."""
    if lattice is None or not vectors:
        return _common_ints(vectors)
    k, dim = len(lattice), len(lattice[0]) if lattice else len(vectors[0])
    off = [v for v in vectors if len(v) != dim]
    if not off:
        dual, d = linalg._dual_rows(lattice, dim)
        ints, s = _common_ints(vectors)
        rows = [[sum(map(mul, row, w)) for row in dual] for w in ints]
        off = [v for v, dots in zip(vectors, rows) if any(dots[k:])]
    if off:
        raise InvalidInput(f"{name.format(_written(off[0]))} lies outside the span of the reference lattice")
    g = gcd(d * s, *(x for dots in rows for x in dots[:k]))
    return [[x // g for x in dots[:k]] for dots in rows], d * s // g


def _old_normalize_ineq(coeffs, rhs):
    coeffs = qv(coeffs)
    rhs = Q(rhs)
    if all(a == 0 for a in coeffs):
        return None if rhs <= 0 else (coeffs, Q(1))
    denom = 1
    for a in list(coeffs) + [rhs]:
        denom = denom * a.denominator // gcd(denom, a.denominator)
    ints = [int(a * denom) for a in coeffs]
    r = int(rhs * denom)
    g = gcd(*ints, *([r] if r else []))
    return tuple(Q(x // g) for x in ints), Q(r // g if g else r)


def _old_feasible(num_vars, eqs, ineqs):
    if eqs:
        aug = [list(c) + [r] for c, r in eqs]
        aug, pivots = _old_rref(aug)
        for row in aug:
            if all(x == 0 for x in row[:num_vars]) and row[num_vars] != 0:
                return None
        pivot_expr = {}
        for r, c in enumerate(pivots):
            if c >= num_vars:
                return None
            pivot_expr[c] = ([-aug[r][j] for j in range(num_vars)], aug[r][num_vars])
            pivot_expr[c][0][c] = Q(0)
        free_vars = [j for j in range(num_vars) if j not in pivot_expr]
        index_of = {v: i for i, v in enumerate(free_vars)}

        def project(coeffs, rhs):
            out = [Q(0)] * len(free_vars)
            const = Q(0)
            for j, a in enumerate(coeffs):
                if a == 0:
                    continue
                if j in pivot_expr:
                    expr, c0 = pivot_expr[j]
                    const += a * c0
                    for f in free_vars:
                        out[index_of[f]] += a * expr[f]
                else:
                    out[index_of[j]] += a
            return out, Q(rhs) - const

        reduced = []
        for coeffs, rhs in ineqs:
            c, r = project(coeffs, rhs)
            reduced.append((tuple(c), r))
        sub = _old_feasible(len(free_vars), (), reduced)
        if sub is None:
            return None
        x = [Q(0)] * num_vars
        for f, val in zip(free_vars, sub):
            x[f] = val
        for c, (expr, c0) in pivot_expr.items():
            x[c] = c0 + sum((expr[j] * x[j] for j in range(num_vars)), Q(0))
        return tuple(x)

    system = set()
    for coeffs, rhs in ineqs:
        n = _old_normalize_ineq(coeffs, rhs)
        if n is not None:
            if all(a == 0 for a in n[0]):
                return None
            system.add(n)

    active = list(range(num_vars))
    stack = []
    while active:
        best, best_cost = None, None
        for v in active:
            pos = sum(1 for c, _ in system if c[v] > 0)
            neg = sum(1 for c, _ in system if c[v] < 0)
            cost = pos * neg - pos - neg
            if best_cost is None or cost < best_cost:
                best, best_cost = v, cost
        v = best
        lowers = []
        uppers = []
        rest = []
        for coeffs, rhs in system:
            a = coeffs[v]
            if a == 0:
                rest.append((coeffs, rhs))
            else:
                expr = (tuple(-coeffs[j] / a if j != v else Q(0) for j in range(num_vars)), rhs / a)
                (lowers if a > 0 else uppers).append(expr)
        new_system = set(rest)
        for lc, lr in lowers:
            for uc, ur in uppers:
                n = _old_normalize_ineq(tuple(u - l for u, l in zip(uc, lc)), lr - ur)
                if n is not None:
                    if all(a == 0 for a in n[0]):
                        return None
                    new_system.add(n)
        stack.append((v, lowers, uppers))
        active.remove(v)
        system = new_system

    for coeffs, rhs in system:
        if rhs > 0:
            return None

    x = [Q(0)] * num_vars
    for v, lowers, uppers in reversed(stack):
        lo = max((r + dot(c, x) for c, r in lowers), default=None)
        hi = min((r + dot(c, x) for c, r in uppers), default=None)
        if lo is None and hi is None:
            x[v] = Q(0)
        elif lo is None:
            x[v] = min(hi, Q(0))
        elif hi is None:
            x[v] = max(lo, Q(0))
        else:
            x[v] = (lo + hi) / 2
    return tuple(x)


def _old_relints_share_valuation_point(cones, vcone):
    """The block system with one weight variable per generator of every cone
    and of the valuation cone: the first cone's point equals each later
    cone's point and a valuation-cone point, every cone weight at least 1
    and every valuation weight at least 0."""
    blocks = [c.gens for c in cones] + [vcone.gens]
    total = sum(len(b) for b in blocks)
    eqs = []
    for t in range(1, len(blocks)):
        for coord in range(cones[0].ambient_dim):
            row = []
            for s, block in enumerate(blocks):
                sign = 1 if s == 0 else -1 if s == t else 0
                row += [sign * g[coord] for g in block]
            eqs.append((qv(row), Q(0)))
    free = total - len(vcone.gens)
    ineqs = [(_unit(total, i), Q(1 if i < free else 0)) for i in range(total)]
    return _old_feasible(total, eqs, ineqs) is not None


# --- the Fraction cone path before cones were built on integers ---------------


def echelon_lattice_ints(lattice, vectors, name="vector"):
    """Coordinates in the lattice rows from one fraction-free Gauss-Jordan
    elimination of [L^T | V^T] per call: its first k rows are d * [I | X].
    A vector of another length or off the span is refused, the first pivot
    past the lattice columns naming it."""
    if lattice is None or not vectors:
        return _common_ints(vectors)
    k, dim = len(lattice), len(lattice[0]) if lattice else len(vectors[0])
    off = [v for v in vectors if len(v) != dim]
    if not off:
        a, pivots, d = _echelon([[*(b[i] for b in lattice), *(v[i] for v in vectors)] for i in range(dim)])
        if pivots[:k] != list(range(k)):
            raise InvalidInput("basis rows are linearly dependent")
        off = [vectors[pivots[k] - k]] if len(pivots) > k else []
    if off:
        raise InvalidInput(f"{name.format(_written(off[0]))} lies outside the span of the reference lattice")
    g = gcd(d, *(x for row in a[:k] for x in row[k:])) * (1 if d > 0 else -1)
    return [[a[i][k + j] // g for i in range(k)] for j in range(len(vectors))], d // g


def fraction_primitivize(vectors, lattice):
    if lattice is None:
        return [primitive_direction(g) for g in vectors]
    coords, _ = echelon_lattice_ints(lattice, vectors, "generator {}")
    prim = [linalg._primitive_ints(c) for c in coords]
    rows, s = _common_ints(lattice)
    cols = tuple(zip(*rows))
    return [tuple(Q(sum(map(mul, col, c)), s) for col in cols) for c in prim]


def fraction_cone(generators, lattice=None, ambient_dim=None):
    """`cone` as it was: Fraction generators deduplicated and sorted as
    Fraction tuples, a lattice solved per cone, the dual basis solved on the
    Fraction rows."""
    from weylfans.polyhedra import RationalCone

    gens = [qv(g) for g in generators]
    if ambient_dim is None:
        if not gens:
            raise InvalidInput("a generator-free cone needs an explicit ambient dimension")
        ambient_dim = len(gens[0])
    if any(len(g) != ambient_dim for g in gens):
        raise InvalidInput("cone generators of mixed dimension")
    if lattice is not None:
        lattice = qm(lattice)
    prim = tuple(sorted(set(fraction_primitivize([g for g in gens if any(g)], lattice))))
    result = RationalCone(ambient_dim, prim, lattice)
    try:
        object.__setattr__(result, "_dual", linalg._dual_rows(prim, ambient_dim))
    except InvalidInput:
        raise InvalidInput("cone generators must be linearly independent (simplicial cones only)") from None
    return result


def fraction_ray_keys(gen_lists):
    """Ray names as they were: each object hashed by a set, then by the
    index lookup, and each distinct ray once more by the index dict."""
    objects = {id(g): g for gens in gen_lists for g in gens}
    rays = sorted(set(objects.values()))
    index = {r: i for i, r in enumerate(rays)}
    by_id = {k: index[g] for k, g in objects.items()}
    return rays, [tuple(by_id[id(g)] for g in gens) for gens in gen_lists]
