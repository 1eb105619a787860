import random
from fractions import Fraction as Q
from math import gcd, prod
from itertools import combinations, product

import pytest
from old_linalg import _old_feasible, _old_inverse, _old_rref, dot, mat_mul, mat_vec, minors_gcd, transpose

from weylfans import linalg
from weylfans.errors import InvalidInput
from weylfans.linalg import (
    det,
    primitive_direction,
    qm,
    qv,
    rank,
    saturation_basis,
    smith_normal_form,
)
from weylfans.polyhedra import RationalCone, _lattice_ints


def test_basic_solvers():
    a = qm([[2, -1], [-3, 2]])
    assert det(a) == 1
    assert rank(qm([[1, 2], [2, 4]])) == 1


def test_coords_in_basis():
    """Coordinates in a lattice basis, read by polyhedra's one-solve reader:
    integer rows over one least denominator, and refusals off the span, at
    another length and for nonzero vectors of the empty lattice."""
    basis = qm([[1, 0, 0], [0, 1, 0]])
    assert _lattice_ints(basis, [qv([3, 4, 0])]) == ([[3, 4]], 1)
    assert _lattice_ints(qm([[2, 0], [0, 3]]), [qv([1, 1]), qv([2, 0])]) == ([[3, 2], [6, 0]], 6)
    for v in ([3, 4, 1], [3, 4]):
        with pytest.raises(InvalidInput, match="^vector lies outside the span of the reference lattice$"):
            _lattice_ints(basis, [qv(v)])
    assert _lattice_ints((), [qv([0, 0])]) == ([[]], 1)
    with pytest.raises(InvalidInput, match="outside the span"):
        _lattice_ints((), [qv([0, 1])])


def test_primitive_direction():
    assert primitive_direction(qv([Q(2, 3), Q(-4, 3)])) == qv([1, -2])
    assert primitive_direction(qv([6, -9])) == qv([2, -3])
    with pytest.raises(InvalidInput):
        primitive_direction(qv([0, 0]))


def test_smith_normal_form_randomized():
    rng = random.Random(11)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        diag, t_inv = smith_normal_form(m)
        assert abs(det(qm(t_inv))) == 1
        nonzero = [d for d in diag if d != 0]
        assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
        assert all(d == 0 for d in diag[len(nonzero):])
        assert len(nonzero) == rank(qm(m))
        # every row of m must be an integer combination of diag[i] * T[i]:
        # its coordinates in the rows of T = t_inv^-1 are row @ t_inv
        for row in m:
            coords = mat_vec(transpose(qm(t_inv)), qv(row))
            for i, c in enumerate(coords):
                d = diag[i] if i < len(diag) else 0
                assert c.denominator == 1
                assert (c == 0) if d == 0 else (int(c) % d == 0)


# --- the Fraction and integer eliminations that the fraction-free core
# replaced, kept verbatim as the oracle for the differential test below
# (with _old_rref in old_linalg) ---


def _old_det(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvalidInput("determinant of a non-square matrix")
    a = [list(row) for row in m]
    result = Q(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return Q(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            result = -result
        result *= a[c][c]
        inv = Q(1) / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def _old_int_rank(rows):
    a = []
    for row in rows:
        r = [int(x) for x in row]
        g = gcd(*r)
        a.append([x // g for x in r] if g > 1 else r)
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c] != 0:
                g = gcd(a[r][c], a[i][c])
                f1, f2 = a[r][c] // g, a[i][c] // g
                a[i] = [f1 * x - f2 * y for x, y in zip(a[i], a[r])]
                g2 = gcd(*a[i])
                if g2 > 1:
                    a[i] = [x // g2 for x in a[i]]
        r += 1
        if r == len(a):
            break
    return r


def _old_minors_gcd(m, k):
    cols = len(m[0]) if m else 0
    g = 0
    for sel in combinations(range(cols), k):
        sub = qm([[row[c] for c in sel] for row in m])
        g = gcd(g, abs(int(_old_det(sub))))
        if g == 1:
            return 1
    return g


def _old_solve(a, b):
    ncols = len(a[0])
    aug, pivots = _old_rref([list(row) + [Q(bi)] for row, bi in zip(a, b)])
    for row in aug:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Q(0)] * ncols
    for r, c in enumerate(pivots):
        if c < ncols:
            x[c] = aug[r][ncols]
        elif aug[r][ncols] != 0:
            return None
    return tuple(x)


def _old_nullspace(m):
    ncols = len(m[0])
    rows, pivots = _old_rref([list(row) for row in m])
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def _random_matrix(rng):
    """A seeded rational matrix of shape 1-8 x 1-8, square half the time;
    a scaled duplicate row or a zeroed column makes two thirds singular."""
    nrows = rng.randint(1, 8)
    ncols = nrows if rng.random() < 0.5 else rng.randint(1, 8)
    rows = [
        [Q(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.8 else Q(0) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    kind = rng.choice(("plain", "duplicate", "zero column"))
    if kind == "duplicate" and nrows > 1:
        i, j = rng.sample(range(nrows), 2)
        scale = Q(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
        rows[j] = [scale * x for x in rows[i]]
    elif kind == "zero column":
        c = rng.randrange(ncols)
        for row in rows:
            row[c] = Q(0)
    return qm(rows)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidInput:
        return InvalidInput


def test_elimination_core_matches_old_routines():
    rng = random.Random(2024)
    for _ in range(400):
        m = _random_matrix(rng)
        nrows, ncols = len(m), len(m[0])
        old = _old_rref([list(r) for r in m])
        assert rank(m) == len(old[1])
        assert _outcome(det, m) == _outcome(_old_det, m)
        x0 = qv([Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)])

        # integer rows: rank against the old integer elimination, and the gcd
        # of maximal minors of the first min(rows, cols) rows, which is the
        # product of their invariant factors
        ints = [[x.numerator for x in row] for row in m]
        assert rank(ints) == _old_int_rank(ints) == rank(qm(ints))
        k = min(nrows, ncols)
        assert minors_gcd(ints[:k], k) == _old_minors_gcd(ints[:k], k) == prod(smith_normal_form(ints[:k])[0])

        # feasibility: the equality step runs on one integer _echelon, so
        # the Fraction elimination must give the same verdict
        if ncols <= 5:
            eqs = [(row, dot(row, x0)) for row in m[:3]]
            ineqs = [(qv([rng.randint(-3, 3) for _ in range(ncols)]), Q(rng.randint(-4, 2))) for _ in range(rng.randint(0, 3))]
            assert linalg._eliminate(ncols, eqs, ineqs) == (_old_feasible(ncols, eqs, ineqs) is not None)


# --- the three change-of-coordinates routines that the cached dual basis
# replaced, kept as the oracle for the differential test below ---


def _old_coords_in_basis(basis_rows, v):
    """A fresh solve, certified by substituting back."""
    if not basis_rows:
        return () if all(x == 0 for x in v) else None
    sol = _old_solve(transpose(basis_rows), v)
    if sol is None or mat_vec(transpose(basis_rows), sol) != tuple(Q(x) for x in v):
        return None
    return sol


def _old_coord_matrix(rows):
    """lattice's Gram-inverse formula (B B^T)^-1 B."""
    return mat_mul(_old_inverse(mat_mul(rows, transpose(rows))), rows)


def _old_dual_rows(gens):
    """polyhedra's generators padded greedily by unit vectors, then inverted."""
    dim = len(gens[0])
    rows = list(gens)
    r = len(rows)
    for j in range(dim):
        if r == dim:
            break
        candidate = rows + [linalg._unit(dim, j)]
        if rank(qm(candidate)) > r:
            rows = candidate
            r += 1
    return _old_inverse(transpose(qm(rows)))


def _old_contains(dual_rows, k, v, strict):
    coords = mat_vec(dual_rows, v)
    if any(x != 0 for x in coords[k:]):
        return False
    if strict:
        return all(x > 0 for x in coords[:k])
    return all(x >= 0 for x in coords[:k])


BUNDLED_TYPES = (
    [f"A{n}" for n in range(1, 13)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 13)]
    + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_dual_basis_matches_old_coordinate_routines():
    from weylfans import lattice as lat
    from weylfans.errors import BasisChangeError
    from weylfans.polyhedra import cone, contains
    from weylfans.rootsys import build_root_system

    rng = random.Random(2007)
    seen = {"in": 0, "off": 0, "inside": 0, "boundary": 0}
    for _ in range(200):
        dim = rng.randint(1, 6)
        k = rng.randint(1, dim)
        while True:
            basis = qm(
                [[Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim)] for _ in range(k)]
            )
            if rank(basis) == k:
                break
        c = cone(basis)
        old_dual = _old_dual_rows(c.gens)
        d = linalg._dual_rows(c.gens, dim)[1]
        assert [tuple(Q(x, d) for x in row) for row in c._dual[0][:k]] == list(old_dual[:k])
        for _ in range(4):
            lam = [Q(rng.randint(-1, 4), rng.randint(1, 2)) for _ in range(k)]
            v = mat_vec(transpose(basis), lam)
            if k < dim and rng.random() < 0.5:
                v = tuple(x + Q(rng.randint(-2, 2)) for x in v)
            try:
                coords = RationalCone(dim, (), basis).lattice_coords(v)
            except InvalidInput:
                coords = None
            assert coords == _old_coords_in_basis(basis, v)
            seen["in" if coords is not None else "off"] += 1
            for w in (v, mat_vec(transpose(c.gens), [abs(x) for x in lam])):
                for strict in (False, True):
                    assert contains(c, w, strict) == _old_contains(old_dual, k, w, strict)
                if contains(c, w):
                    seen["inside" if contains(c, w, strict=True) else "boundary"] += 1
    assert min(seen.values()) > 40

    # to_basis on every bundled type: root-lattice vectors and ambient unit
    # vectors, which may lie off the root span when the ambient space is bigger
    rejected = 0
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        for tag in ("simple_root", "fund_weight", "simple_coroot", "fund_coweight"):
            rows = lat._basis_rows(rs, tag)
            old = _old_coord_matrix(rows)
            vectors = [linalg._unit(rs.ambient_dim, rng.randrange(rs.ambient_dim)) for _ in range(2)]
            for _ in range(3):
                coeffs = [rng.randint(-9, 9) for _ in range(rs.rank)]
                vectors.append(mat_vec(transpose(rs.simple_roots), coeffs))
            for amb in vectors:
                expected = mat_vec(old, amb)
                if mat_vec(transpose(rows), expected) != amb:
                    rejected += 1
                    with pytest.raises(BasisChangeError):
                        lat.to_basis(lat.vector(rs, amb), tag)
                else:
                    assert lat.to_basis(lat.vector(rs, amb), tag).coords == expected
    assert rejected > 0


def test_saturation_basis():
    sat = saturation_basis([qv([1, 0, 0, 1]), qv([0, 0, 0, 2])])
    assert len(sat) == 2
    for target in ([1, 0, 0, 0], [0, 0, 0, 1]):
        _, d = _lattice_ints(sat, [qv(target)])
        assert d == 1
    third = saturation_basis([qv([Q(1, 3), Q(1, 3), Q(-2, 3)])])
    assert len(third) == 1
    assert primitive_direction(third[0]) in (qv([1, 1, -2]), qv([-1, -1, 2]))


def test_minors_gcd():
    assert minors_gcd([[1, 0], [0, 1]], 2) == 1
    assert minors_gcd([[2, 0], [0, 2]], 2) == 4
    assert minors_gcd([[1, 0, 0], [0, 2, 0]], 2) == 2
    assert minors_gcd([[1, 0, 0], [0, 1, 1]], 2) == 1


def test_feasible_witnesses():
    eliminate = linalg._eliminate
    assert eliminate(2, [], [(qv([1, 0]), Q(1)), (qv([0, 1]), Q(1)), (qv([-1, -1]), Q(-3))]) is True
    assert eliminate(2, [], [(qv([1, 0]), Q(1)), (qv([-1, 0]), Q(0))]) is False
    assert eliminate(3, [(qv([1, 1, 1]), Q(3))], [(qv([1, 0, 0]), Q(1)), (qv([0, 1, 0]), Q(1)), (qv([0, 0, 1]), Q(1))]) is True
    assert eliminate(1, [(qv([0]), Q(1))], []) is False
    assert eliminate(0, [], []) is True


def test_feasible_never_misses_a_constructed_solution():
    # build systems that are satisfiable by a known random point, including
    # tight equalities; the elimination must always find them solvable
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 5)
        x0 = qv([Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])
        eqs = []
        ineqs = []
        for _ in range(rng.randint(0, 3)):
            coeffs = qv([rng.randint(-4, 4) for _ in range(n)])
            eqs.append((coeffs, dot(coeffs, x0)))
        for _ in range(rng.randint(0, 6)):
            coeffs = qv([rng.randint(-4, 4) for _ in range(n)])
            slack = Q(rng.randint(0, 5), rng.randint(1, 2))
            ineqs.append((coeffs, dot(coeffs, x0) - slack))
        assert linalg._eliminate(n, eqs, ineqs) is True


def test_feasible_against_grid_search():
    rng = random.Random(7)
    grid = [Q(p, 2) for p in range(-12, 13)]
    for _ in range(200):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        ineqs = [
            (qv([rng.randint(-3, 3) for _ in range(n)]), Q(rng.randint(-4, 2)))
            for _ in range(m)
        ]
        if linalg._eliminate(n, [], ineqs):
            witness = _old_feasible(n, [], ineqs)
            assert witness is not None and all(dot(c, witness) >= r for c, r in ineqs)
        else:
            for point in product(grid, repeat=n):
                assert not all(dot(c, point) >= r for c, r in ineqs)


def _random_system(rng):
    """A seeded system in at most 5 variables around a random point: tight
    and slack rows, a third of them pushed past the point (often making the
    system infeasible), zero rows, duplicate rows and equalities."""
    n = rng.randint(1, 5)
    x0 = [Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    ineqs = []
    for _ in range(rng.randint(0, 7)):
        coeffs = qv([Q(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(n)])
        shift = Q(rng.randint(-3, 4), rng.randint(1, 2))
        ineqs.append((coeffs, dot(coeffs, x0) - shift))
    if rng.random() < 0.2:
        ineqs.append((qv([0] * n), Q(rng.randint(-2, 2))))
    if ineqs and rng.random() < 0.3:
        coeffs, rhs = rng.choice(ineqs)
        scale = Q(rng.randint(1, 4), rng.randint(1, 3))
        ineqs.append((tuple(scale * c for c in coeffs), scale * rhs))
    rng.shuffle(ineqs)
    eqs = []
    if rng.random() < 0.4:
        for _ in range(rng.randint(1, n)):
            coeffs = qv([rng.randint(-3, 3) for _ in range(n)])
            eqs.append((coeffs, dot(coeffs, x0) + (rng.randint(-1, 1) if rng.random() < 0.2 else 0)))
    return n, eqs, ineqs


def _pair_system(c1, c2, vcone):
    """The system that asked whether two relative interiors share a point of
    the valuation cone: c1's generator weights, each at least 1, with c2's
    span equations vanishing, its facets at least 1 and the valuation
    cone's facets at least 0 on the point they give."""
    from weylfans.polyhedra import _rows_on_weights

    gens = c1.gens
    eqs, ineqs = [], [(linalg._int_unit(len(gens), i), 1) for i in range(len(gens))]
    for c, bound in ((c2, 1), (vcone, 0)):
        rows = _rows_on_weights(c, gens)
        eqs += [(row, 0) for row in rows[len(c.gens):]]
        ineqs += [(row, bound) for row in rows[: len(c.gens)]]
    return len(gens), eqs, ineqs


def _recorded_colored_fan_systems(monkeypatch):
    """Every feasibility system that polyhedra and spherical ask while
    checking and covering the type-C colored fans of ranks 2-4, and the
    pair systems of their colored cones."""
    from weylfans import polyhedra, spherical
    from weylfans.rootsys import build_root_system

    recorded = []

    def recorder(fn):
        def record(num_vars, eqs, ineqs):
            recorded.append((num_vars, list(eqs), list(ineqs)))
            return fn(num_vars, eqs, ineqs)

        return record

    with monkeypatch.context() as patch:
        patch.setattr(polyhedra, "_eliminate", recorder(linalg._eliminate))
        patch.setattr(spherical, "_eliminate", recorder(linalg._eliminate))
        for n in range(2, 5):
            fans = spherical.blowup_chain_fans(n)
            fans += [spherical.z_colored_fan(n), spherical.wonderful_colored_fan(build_root_system(f"C{n}"))]
            for f in fans:
                cones = [cc.cone for cc in f.cones]
                spherical.is_complete_embedding(f)
                polyhedra.covered_by(f.valuation_cone, cones, shortcut=False)
                recorded += [_pair_system(c1, c2, f.valuation_cone) for c1, c2 in combinations(cones, 2)]
    return recorded


def test_integer_rows_match_old_fraction_routines(monkeypatch):
    rng = random.Random(1968)
    seen = {"feasible": 0, "infeasible": 0, "with equalities": 0, "zero row": 0}
    for _ in range(1500):
        n, eqs, ineqs = _random_system(rng)
        solvable = linalg._eliminate(n, eqs, ineqs)
        assert solvable == (_old_feasible(n, eqs, ineqs) is not None)
        seen["feasible" if solvable else "infeasible"] += 1
        seen["with equalities"] += bool(eqs)
        seen["zero row"] += any(all(c == 0 for c in coeffs) for coeffs, _ in ineqs)
    assert min(seen.values()) > 150

    recorded = _recorded_colored_fan_systems(monkeypatch)
    assert len(recorded) > 500
    assert any(eqs for _, eqs, _ in recorded) and any(not eqs for _, eqs, _ in recorded)
    outcomes = set()
    for n, eqs, ineqs in recorded:
        solvable = linalg._eliminate(n, eqs, ineqs)
        assert solvable == (_old_feasible(n, eqs, ineqs) is not None)
        outcomes.add(solvable)
        seen["feasible" if solvable else "infeasible"] += 1
    assert outcomes == {True, False}
    # over the seeded and the recorded systems together
    assert seen["feasible"] > 300 and seen["infeasible"] > 300

    # the integer dual basis against the Fraction one, with a positive d,
    # and dependent rows refused
    negative = 0
    for _ in range(300):
        dim = rng.randint(1, 6)
        k = rng.randint(1, dim)
        rows = qm([[Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim)] for _ in range(k)])
        if rank(rows) < k:
            with pytest.raises(InvalidInput, match="linearly dependent"):
                linalg._dual_rows(rows, dim)
            continue
        n_rows, d = linalg._dual_rows(rows, dim)
        old = _old_dual_rows(rows)
        assert d > 0 and all(type(x) is int for row in n_rows for x in row)
        assert tuple(tuple(Q(x, d) for x in row) for row in n_rows) == old
        negative += det(old) < 0
    assert negative > 50
    with pytest.raises(InvalidInput, match="linearly dependent"):
        linalg._dual_rows(qm([[1, 0], [0, 1], [1, 1]]), 2)


def test_integer_rows_are_scaled_once_and_never_changed():
    """`_int_row` against the scaling it replaced, the lcm of the
    denominators times each entry; an all-int row comes back itself.
    `_echelon` reads seeded int, Fraction and mixed rows, lists and tuples,
    and leaves every one of them as it was given."""
    rng = random.Random(22)
    kinds = {"int": 0, "fraction": 0}
    for _ in range(400):
        dim, k = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        for row in rows[: rng.randint(0, k)]:
            row[rng.randrange(dim)] = Q(rng.randint(-4, 4), rng.randint(1, 3))
        rows = [row if rng.random() < 0.5 else tuple(row) for row in rows]
        for row in rows:
            scaled = linalg._int_row(row)
            assert list(scaled) == linalg._scaled_ints(row, linalg._row_scale(row))
            if all(type(x) is int for x in row):
                assert scaled is row
                kinds["int"] += 1
            else:
                kinds["fraction"] += 1
        before = [type(row)(row) for row in rows]
        for reduced in (True, False):
            a, pivots, d = linalg._echelon(rows, reduced=reduced)
            assert rows == before and all(type(x) is int for row in a for x in row)
            assert len(pivots) == rank(qm(rows))
    assert min(kinds.values()) > 300


def test_every_linalg_function_is_used_by_the_package():
    """Each function defined in weylfans.linalg is used by another module of
    the package, directly or through a linalg function that is: a helper the
    integer paths left without a caller goes."""
    import ast
    from pathlib import Path

    source = Path(linalg.__file__)
    tree = ast.parse(source.read_text())
    # what each top-level definition of linalg names
    names_in = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for name in bound:
            names_in[name] = used
    # the linalg names the other modules import and then use
    reached = set()
    for path in source.parent.glob("*.py"):
        if path == source:
            continue
        module = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(module)
            if isinstance(node, ast.ImportFrom) and node.module == "linalg" and node.level == 1
            for alias in node.names
        }
        loaded = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
        reached |= {name for local, name in imported.items() if local in loaded}
    frontier = list(reached)
    while frontier:
        for name in names_in.get(frontier.pop(), ()):
            if name in names_in and name not in reached:
                reached.add(name)
                frontier.append(name)
    functions = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert len(functions) >= 20
    assert [name for name in functions if name not in reached] == []

    # every module: each private top-level name is used somewhere in the
    # package outside its own definition, so no orphan helper is left
    modules = {path: ast.parse(path.read_text()) for path in source.parent.glob("*.py")}
    orphans, private = [], 0
    for path, module in modules.items():
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inside = set(map(id, ast.walk(node)))
            for name in (n for n in bound if n.startswith("_") and not n.startswith("__")):
                private += 1
                uses = (
                    n
                    for m in modules.values()
                    for n in ast.walk(m)
                    if id(n) not in inside
                    and (getattr(n, "id", None) == name or isinstance(n, ast.Attribute) and n.attr == name)
                )
                if next(uses, None) is None:
                    orphans.append(f"{path.stem}.{name}")
    assert private >= 30
    assert orphans == []


def test_no_module_level_cache_in_linalg_or_polyhedra():
    """Reference lattices and dual rows are read per call or kept on the
    cone or root system they belong to: linalg and polyhedra import neither
    functools.lru_cache nor functools.cache."""
    import ast
    from pathlib import Path

    from weylfans import polyhedra

    for module in (linalg, polyhedra):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        attributes = {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        }
        for name in ("lru_cache", "cache"):
            assert ("functools", name) not in imported | attributes, (module.__name__, name)
