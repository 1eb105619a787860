"""Each kernel in one copy, against the second copies it replaced, kept as
oracles in `old_kernels`: cone membership, generator-coordinate supports
and star subdivisions read one `_support`; the longest element and the
simple reflections take the one right-hand reflection update; a colored
top is checked from its own colored faces.  Outcomes are compared,
refusals and their messages included.  Last, `covered_by` refuses a cover
past its row bound or its cell bound."""

import random
import time
from fractions import Fraction as Q

import old_kernels as old
import pytest
from test_colored_face_relation import _outcome
from test_cone_questions import _independent
from test_integer_root_data import BUNDLED_TYPES

from weylfans import polyhedra
from weylfans.errors import BoundExceeded, InvalidInput
from weylfans.linalg import _unit, primitive_direction, qv
from weylfans.polyhedra import (
    MAX_COVER_ROWS, _coordinate_support, _point_ints, _support, cone, contains, covered_by, fan, faces,
    star_subdivision, zero_cone,
)
from weylfans.rootsys import (
    _reflection_step, build_root_system, identity_element, longest_element, simple_reflection,
)
from weylfans.spherical import (
    ColoredCone, _relint_meets_valuation, color_symbol, colored_fan_from_top, standard_rho_table, valuation_cone,
)
from weylfans.toric import weyl_chamber_fan

# --- one support reader -----------------------------------------------------


def _combination(rng, rows, dim):
    """A random integer combination of the rows, in dimension dim."""
    coeffs = [rng.randint(-2, 2) for _ in rows]
    return qv([sum(a * row[i] for a, row in zip(coeffs, rows)) for i in range(dim)])


def _random_cone_and_points(rng):
    """A cone in dimension 1-5, on the standard lattice or a reference
    lattice of lower rank, or the zero cone; and points: on its faces, in its
    interior, off it in its span, off its span and of another length."""
    dim = rng.randint(1, 5)

    def vec():
        return qv([Q(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(dim)])

    lattice = None
    if rng.random() < 0.3:
        lattice = _independent([], rng.randint(1, dim), vec)
        draw = lambda: _combination(rng, lattice, dim)  # noqa: E731
    else:
        draw = vec
    gens = _independent([], rng.randint(0, len(lattice or [0] * dim)), draw)
    c = cone(gens, lattice=lattice, ambient_dim=dim) if gens else zero_cone(dim, lattice)
    points = [qv([0] * dim), vec(), vec(), draw()]
    for _ in range(4):
        weights = [rng.choice((0, 0, 1, 2, Q(1, 3), -1)) for _ in c.gens]
        points.append(qv([sum(w * g[i] for w, g in zip(weights, c.gens)) for i in range(dim)]))
    points.append(qv([0] * (dim + 1)))
    return c, points


def test_support_readers_match_the_old_copies():
    rng = random.Random(3030)
    seen = {"off": 0, "interior": 0, "boundary": 0, "zero cone": 0, "lattice": 0, "refused": 0}
    for _ in range(400):
        c, points = _random_cone_and_points(rng)
        seen["zero cone"] += not c.gens
        seen["lattice"] += c.lattice is not None
        for v in points:
            got = _outcome(lambda: _coordinate_support(c, v))
            assert got == _outcome(lambda: old.coordinate_support(c, v))
            for strict in (False, True):
                assert _outcome(lambda: contains(c, v, strict)) == _outcome(lambda: old.contains(c, v, strict))
            if got[0] == "raises":
                seen["refused"] += 1
                continue
            assert _support(c, _point_ints(v)) == got[1]
            for w in (_point_ints(v), [3 * x for x in _point_ints(v)]):
                assert (_support(c, w) is not None) == old.holds(c, w)
            m = got[1]
            seen["off" if m is None else "interior" if m == (1 << c.dim) - 1 else "boundary"] += 1
    assert min(seen.values()) > 60, seen


def _subdivision_inputs(rng):
    """(fan, ray): chamber fans with rays through random points, generators
    and face points, a one-cone fan and its faces with rays inside and
    outside, and one-cone fans on reference lattices, with rays of another
    length and off the lattice's span."""
    for label in ("A2", "B2", "G2", "A3"):
        f = weyl_chamber_fan(build_root_system(label))
        n = f.ambient_dim
        for _ in range(6):
            yield f, [rng.randint(-3, 3) for _ in range(n)]
        for _ in range(6):
            c = rng.choice(f.maximal_cones)
            face = rng.choice(faces(c)[1:])
            yield f, [sum(g[i] for g in face.gens) for i in range(n)]
    for _ in range(30):
        dim = rng.randint(2, 4)

        def vec():
            return qv([rng.randint(-3, 3) for _ in range(dim)])

        lattice = _independent([], dim if rng.random() < 0.5 else dim - 1, vec) if rng.random() < 0.5 else None
        span = lattice or [_unit(dim, i) for i in range(dim)]
        gens = _independent([], len(span), lambda: _combination(rng, span, dim))
        c = cone(gens, lattice=lattice, ambient_dim=dim)
        f = fan(faces(c)[1:] if rng.random() < 0.3 else [c])
        yield f, [sum(g[i] for g in rng.sample(gens, rng.randint(1, len(gens)))) for i in range(dim)]
        yield f, [sum(rng.randint(-1, 2) * g[i] for g in gens) for i in range(dim)]
        yield f, vec()
        yield f, [1] * (dim + 1)


def test_star_subdivision_matches_the_membership_then_dot_product_pass():
    rng = random.Random(31)
    seen = {"value": 0, "raises": 0}
    for f, ray in _subdivision_inputs(rng):
        got = _outcome(lambda: star_subdivision(f, ray))
        assert got == _outcome(lambda: old.star_subdivision(f, ray)), (f, ray)
        seen[got[0]] += 1
    assert min(seen.values()) > 30, seen


# --- one reflection update ----------------------------------------------------


def _old_longest_element(rs):
    """The descent of `longest_element`, each step s_i w by the left-hand
    update."""
    cartan = [[x.numerator for x in row] for row in rs.cartan]
    v, target = [1] * rs.rank, [-1] * rs.rank
    steps = [_reflection_step(alpha) for alpha in rs.simple_roots]
    w0 = identity_element(rs.ambient_dim)
    while v != target:
        i = next(k for k in range(rs.rank) if v[k] > 0)
        v = [x - v[i] * a for x, a in zip(v, cartan[i])]
        w0 = old.reflection_times(*steps[i], w0, (i + 1,) + w0.word)
    return w0


def test_reflections_and_w0_match_the_left_update_and_hand_built_rows():
    assert len(BUNDLED_TYPES) == 48
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        w0, w_old = longest_element(rs), _old_longest_element(rs)
        assert (w0._rows, w0._den, w0.word) == (w_old._rows, w_old._den, w_old.word), label
        for i in range(1, rs.rank + 1):
            s, s_old = simple_reflection(rs, i), old.simple_reflection(rs, i)
            assert (s._rows, s._den, s.word) == (s_old._rows, s_old._den, s_old.word), (label, i)
    g2 = build_root_system("G2")
    for i in (0, 3):
        assert _outcome(lambda: simple_reflection(g2, i)) == _outcome(lambda: old.simple_reflection(g2, i))


# --- colored tops checked from their own faces ---------------------------------

TOP_TYPES = ("A2", "B2", "C2", "G2", "A3", "B3", "C3")


def _broken_checks(top, vcone, rho):
    """The checks of the old validation the top breaks, each asked alone."""
    known = [d for d in top.colors if d in rho]
    rays = {primitive_direction(rho[d]) for d in known}
    broken = []
    if len(known) < len(top.colors):
        broken.append("unknown")
    if any(not old.contains(top.cone, rho[d]) for d in known):
        broken.append("outside")
    if any(not old.contains(vcone, g) and primitive_direction(g) not in rays for g in top.cone.gens):
        broken.append("generator")
    if not _relint_meets_valuation(top.cone, vcone):
        broken.append("interior")
    return broken


def _random_top(rng, rs, rho):
    """A colored top of rank many generators at most, drawn from the negated
    coweights, the color images, and small vectors; with colors drawn among
    those whose image is a generator, the others and an unknown one."""
    n = rs.rank
    pool = [_unit(n, i, -1) for i in range(n)] + [rho[color_symbol(j)] for j in range(1, n + 1)]

    def draw():
        return rng.choice(pool) if rng.random() < 0.8 else qv([rng.randint(-2, 1) for _ in range(n)])

    gens = _independent([], rng.randint(0, n), draw)
    symbols = [color_symbol(j) for j in range(1, n + 1)]
    on_gens = [d for d in symbols if rho[d] in gens]
    colors = {d for d in on_gens if rng.random() < 0.8}
    colors |= {d for d in symbols if rng.random() < 0.1}
    if rng.random() < 0.1:
        colors.add("D(w9)")
    return ColoredCone(cone=cone(gens, ambient_dim=n) if gens else zero_cone(n), colors=frozenset(colors))


def _verdict(call):
    try:
        call()
    except InvalidInput as exc:
        return str(exc)
    return "valid"


def test_colored_tops_are_refused_as_the_old_validation_refused():
    rng = random.Random(30)
    seen = {"valid": 0, "unknown": 0, "outside": 0, "generator": 0, "interior": 0, "dimension": 0}
    for _ in range(700):
        rs = build_root_system(rng.choice(TOP_TYPES))
        rho, vcone = standard_rho_table(rs), valuation_cone(rs)
        top = _random_top(rng, rs, rho)
        broken = _broken_checks(top, vcone, rho)
        if len(broken) > 1:
            continue
        expected = _verdict(lambda: old.validate_colored_cone(top, vcone, rho))
        assert _verdict(lambda: colored_fan_from_top(rs, top)) == expected, (rs.label, top)
        seen[broken[0] if broken else "valid"] += 1
    # a top of another ambient dimension than the rank
    for label, gens, colors in (("A2", [(-1, 0, 0)], ()), ("A2", [], ()), ("B3", [(-1, 0)], (color_symbol(1),))):
        rs = build_root_system(label)
        rho, vcone = standard_rho_table(rs), valuation_cone(rs)
        top = ColoredCone(cone=cone(gens, ambient_dim=len(gens[0]) if gens else 4), colors=frozenset(colors))
        expected = _verdict(lambda: old.validate_colored_cone(top, vcone, rho))
        assert expected == "dimension mismatch in cone membership"
        assert _verdict(lambda: colored_fan_from_top(rs, top)) == expected
        seen["dimension"] += 1
    assert seen["dimension"] == 3 and min(v for k, v in seen.items() if k != "dimension") >= 15, seen


# --- the covered_by bounds ----------------------------------------------------


def test_wide_cover_is_refused_within_the_row_bound():
    """699 thin cones cut the quadrant by 1,398 distinct rows, one level of
    the cell recursion each, which ended in RecursionError: the cover is
    refused with BoundExceeded before any cell, within a second."""
    target = cone([(1, 0), (0, 1)])
    cover = [cone([(j, j + 1), (j + 1, j)]) for j in range(1, 700)]
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match=f"^1398 distinct rows cut the cone, above the bound {MAX_COVER_ROWS}$"):
        covered_by(target, cover)
    assert time.perf_counter() - start < 1.0


def test_cell_walk_is_refused_past_the_cell_bound(monkeypatch):
    """An orthant under the B3 chamber fan takes more cells than a bound of
    20 and is refused when the walk passes it; under the bound of the
    package the answer stands."""
    f = weyl_chamber_fan(build_root_system("B3"))
    orthant = cone([(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    assert covered_by(orthant, f.maximal_cones, shortcut=False)
    monkeypatch.setattr(polyhedra, "MAX_COVER_CELLS", 20)
    with pytest.raises(BoundExceeded, match="^deciding the cover visits more than 20 cells, above the bound$"):
        covered_by(orthant, f.maximal_cones, shortcut=False)
