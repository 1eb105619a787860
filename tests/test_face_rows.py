"""Faces read their dual rows off their top cone, and `_dual_rows` is one
elimination, both against the code they replaced.  The two-pass
`_dual_rows` kept in old_linalg is the oracle for the one-elimination
kernel and, solved on each face's own generators, for the rows a face reads
off its top; the facet loop of `star_subdivision` is kept here as the
oracle for reading avoided facets off the ray's coordinates.  Work counts
guard against faces and facets solving again."""

import random
from fractions import Fraction as Q
from itertools import combinations

import old_linalg
import pytest

from weylfans import linalg, polyhedra
from weylfans.casebook import _e8_wprime, _f4_wprime
from weylfans.errors import InvalidInput
from weylfans.linalg import _int_unit, qm, qv, rank
from weylfans.polyhedra import (
    RationalCone,
    _face_subsets,
    _primitivize,
    cone,
    contains,
    covered_by,
    fan,
    faces,
    star_subdivision,
)
from weylfans.rootsys import build_root_system
from weylfans.spherical import (
    ColoredCone,
    _colored_faces,
    _relint_meets_valuation,
    blowup_chain_fans,
    chain_cone,
    standard_rho_table,
    valuation_cone,
)
from weylfans.toric import subtorus_closure_fan, weyl_chamber_fan

# --- the code before, kept as the oracle --------------------------------------


def _units(dim):
    return tuple(_int_unit(dim, i) for i in range(dim)), 1


def _fresh(f):
    """The cone built directly, its rows the two-pass solve of its own
    generators (unit rows over 1 for the zero cone, as before)."""
    return RationalCone(
        f.ambient_dim, f.gens, f.lattice, _dual=old_linalg._dual_rows(f.gens) if f.gens else _units(f.ambient_dim)
    )


def _old_colored_faces(top, vcone, rho):
    c = top.cone
    inside = [contains(vcone, g) for g in c.gens]
    out = []
    for subset in _face_subsets(len(c.gens)):
        f = _fresh(RationalCone(c.ambient_dim, tuple(c.gens[i] for i in subset), c.lattice))
        if all(inside[i] for i in subset) or _relint_meets_valuation(f, vcone):
            kept = frozenset(d for d in top.colors if contains(f, rho[d]))
            out.append(ColoredCone(cone=f, colors=kept))
    return out


def _old_star_subdivision(f, ray):
    # the package refuses a ray of the wrong length before it reads any lattice
    if len(ray) != f.ambient_dim:
        raise InvalidInput(f"subdivision ray has length {len(ray)}, not the fan's ambient dimension {f.ambient_dim}")
    (ray_p,) = _primitivize([qv(ray)], f.lattice)
    containing = [c for c in f.maximal_cones if contains(c, ray_p)]
    if not containing:
        raise InvalidInput("subdivision ray lies outside the support of the fan")
    new_cones = [c for c in f.maximal_cones if not contains(c, ray_p)]
    for c in containing:
        for facet in combinations(c.gens, len(c.gens) - 1):
            facet_cone = RationalCone(c.ambient_dim, facet, c.lattice)
            if not contains(facet_cone, ray_p):
                new_cones.append(cone(list(facet) + [ray_p], lattice=c.lattice, ambient_dim=c.ambient_dim))
    return fan(new_cones)


def _outcome(compute):
    """The value, or the refusal's message."""
    try:
        return compute()
    except InvalidInput as exc:
        return ("refused", str(exc))


def _as_fractions(dual):
    rows, d = dual
    return tuple(tuple(Q(x, d) for x in row) for row in rows)


# --- the kernel -----------------------------------------------------------------


def _rational_rows(rng, dim, k):
    return qm([[Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim)] for _ in range(k)])


def _independent_rows(rng, dim, k):
    while True:
        rows = _rational_rows(rng, dim, k)
        if rank(rows) == k:
            return rows


def test_dual_rows_is_one_elimination_matching_two_pass(monkeypatch):
    """Seeded rational bases of every rank 0..dim, dim 0..6: one `_echelon`
    call, a positive d, and the two-pass N/d; dependent rows, more rows than
    the dimension among them, refused alike."""
    calls = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda *a, **kw: calls.append(a) or echelon(*a, **kw))
    rng = random.Random(1968)
    refused = 0
    for dim in range(7):
        for k in range(dim + 1):
            for _ in range(8):
                rows = _rational_rows(rng, dim, k)
                if rank(rows) < k:
                    continue
                calls.clear()
                rows_n, d = linalg._dual_rows(rows, dim)
                assert len(calls) == 1
                assert d > 0 and all(type(x) is int for row in rows_n for x in row)
                if k:
                    assert _as_fractions((rows_n, d)) == _as_fractions(old_linalg._dual_rows(rows))
                else:
                    assert (rows_n, d) == _units(dim)
        for k in range(1, dim + 2):
            rows = _rational_rows(rng, dim, k - 1)
            # a combination of the others (the zero row among them), or more
            # rows than the dimension
            lam = [rng.randint(-2, 2) for _ in rows]
            extra = qv([sum((x * r[j] for x, r in zip(lam, rows)), Q(0)) for j in range(dim)])
            for dependent in ((*rows, extra), (*rows, *_rational_rows(rng, dim, dim + 2 - k))):
                new = _outcome(lambda: linalg._dual_rows(dependent, dim))
                assert new == _outcome(lambda: old_linalg._dual_rows(dependent))
                assert new == ("refused", "basis rows are linearly dependent")
                refused += 1
    assert refused == 56


# --- face rows from the top against each face's own solve ------------------------


def _chamber_tops():
    for label in ("A2", "B2", "G2", "A3", "B3"):
        cones = weyl_chamber_fan(build_root_system(label)).maximal_cones
        for c in cones:
            yield c, cones[0], {}, ()


def _colored_tops():
    """The chain tops of ranks 2-6, the z-fan tops and the wonderful
    valuation cones, each with its valuation cone and colors."""
    for n in range(2, 7):
        rs = build_root_system(f"C{n}")
        rho, vcone = standard_rho_table(rs), valuation_cone(rs)
        for f in blowup_chain_fans(n):
            top = max(f.cones, key=lambda cc: cc.cone.dim)
            yield top.cone, vcone, rho, top.colors
        top = chain_cone(rs, n)
        yield top.cone, vcone, rho, top.colors
    for label in ("A2", "B2", "G2", "A3", "B3", "C4", "D4", "F4", "A5", "E6"):
        rs = build_root_system(label)
        vcone = valuation_cone(rs)
        yield vcone, vcone, standard_rho_table(rs), frozenset()


def _subtorus_tops():
    for wprime in (_f4_wprime, _e8_wprime):
        cones = subtorus_closure_fan(*wprime()).maximal_cones
        for c in cones:
            yield c, cones[-1], {}, ()


def _seeded_tops(rng):
    """Cones of lower dimension than their ambient space, some in a rational
    reference lattice, with a second cone of the same space."""
    for _ in range(25):
        dim = rng.randint(2, 5)
        gens = _independent_rows(rng, dim, rng.randint(1, dim - 1))
        other = cone(_independent_rows(rng, dim, 2), ambient_dim=dim)
        lattice = None
        if rng.random() < 0.3:
            lattice = qm([[Q(int(i == j), rng.randint(1, 3)) for j in range(dim)] for i in range(dim)])
        yield cone(gens, lattice=lattice, ambient_dim=dim), other, {}, ()


def _points(rng, top, face_list):
    """Points in the relative interiors of seeded faces, in the interior,
    and off the span (or outside, for a full cone)."""
    dim = top.ambient_dim
    points = []
    for f in rng.sample(face_list, min(len(face_list), 8)):
        lam = [Q(rng.randint(1, 5), rng.randint(1, 3)) for _ in f.gens]
        points.append(qv([sum((x * g[j] for x, g in zip(lam, f.gens)), Q(0)) for j in range(dim)]))
    for p in list(points[:3]):
        points.append(qv([x + Q(rng.randint(-2, 2), rng.randint(1, 2)) for x in p]))
    if top.gens:
        points.append(qv([-x for x in top.gens[0]]))
    return points


def test_face_rows_from_the_top_answer_like_their_own_solve():
    """On every face of the chamber cones of A2, B2, G2, A3 and B3, the
    chain and z-fan tops of ranks 2-6, the wonderful valuation cones A2-E6,
    the F4/E8 subtorus-plane cones and seeded cones of lower dimension:
    membership (strict and not), relative interiors meeting a valuation
    cone, colored faces and covers answer as with each face's own rows."""
    rng = random.Random(8)
    tops = [*_chamber_tops(), *_colored_tops(), *_subtorus_tops(), *_seeded_tops(rng)]
    seen = {"faces": 0, "in": 0, "out": 0, "relint": 0, "covered": 0, "uncovered": 0}
    for top, vcone, rho, colors in tops:
        new = faces(top)
        old = [_fresh(f) for f in new]
        assert [f.gens for f in new] == [tuple(top.gens[i] for i in s) for s in _face_subsets(top.dim)]
        # each face is handed its rows by `faces`, none solves its own
        assert all("_dual" in vars(f) and f._dual[1] == top._dual[1] for f in new)
        points = _points(rng, top, new)
        for f, g in zip(new, old):
            for p in points:
                for strict in (False, True):
                    verdict = contains(f, p, strict)
                    assert verdict == contains(g, p, strict)
                    seen["in" if verdict else "out"] += 1
            relint = _relint_meets_valuation(f, vcone)
            assert relint == _relint_meets_valuation(g, vcone)
            seen["relint"] += relint
            seen["faces"] += 1
        top_cc = ColoredCone(cone=top, colors=frozenset(colors))
        assert [cc for _, cc in _colored_faces(top_cc, vcone, rho)] == _old_colored_faces(top_cc, vcone, rho)
        # covers: every face by the other cone and a seeded face of the top
        for f, g in zip(new, old):
            i = rng.randrange(len(new))
            cover, old_cover = [vcone, new[i]], [_fresh(vcone), old[i]]
            for shortcut in (True, False) if top.dim <= 3 else (True,):
                verdict = covered_by(f, cover, shortcut)
                assert verdict == covered_by(g, old_cover, shortcut)
                seen["covered" if verdict else "uncovered"] += 1
    assert seen["faces"] > 1500 and min(seen.values()) > 300


# --- star subdivision ---------------------------------------------------------------


def _subdivision_fans():
    yield fan([cone([[1, 0], [0, 1]]), cone([[0, 1], [-1, -1]]), cone([[-1, -1], [1, 0]])])
    yield fan([cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), cone([[0, 1, 0], [0, 0, 1], [-1, 0, 0]])])
    signs = [(1, 1, 1, 1), (1, 1, 1, -1), (1, 1, -1, 1), (-1, 1, 1, 1)]
    yield fan([cone([[s[i] * int(i == j) for j in range(4)] for i in range(4)]) for s in signs])
    for label in ("A2", "B2", "G2", "A3"):
        yield weyl_chamber_fan(build_root_system(label))
    yield subtorus_closure_fan(*_f4_wprime())


def test_star_subdivision_matches_the_facet_loop():
    """Rays in the relative interiors of faces of every codimension, rays
    outside the support and rays of the wrong length, against the loop that
    built each facet and tested the ray on it."""
    rng = random.Random(1030)
    codims, refused = set(), 0
    for f in _subdivision_fans():
        for _ in range(12):
            c = rng.choice(f.maximal_cones)
            size = rng.randint(1, c.dim)
            picked = [(rng.randint(1, 4), g) for g in rng.sample(c.gens, size)]
            ray = [sum(x * g[j] for x, g in picked) for j in range(f.ambient_dim)]
            new = _outcome(lambda: star_subdivision(f, ray))
            assert new == _outcome(lambda: _old_star_subdivision(f, ray))
            assert not isinstance(new, tuple)
            codims.add(c.dim - size)
        for ray in ([-x for x in f.rays()[0]], [rng.randint(-3, 3) for _ in range(f.ambient_dim)], [1] * 5):
            new = _outcome(lambda: star_subdivision(f, ray))
            assert new == _outcome(lambda: _old_star_subdivision(f, ray))
            refused += isinstance(new, tuple)
    assert {0, 1, 2, 3} <= codims and refused > 8


# --- work counts -----------------------------------------------------------------


def _counting(monkeypatch):
    """Count `_dual_rows` solves in polyhedra and the cones `_cones` builds,
    which `cone` in polyhedra and spherical and `star_subdivision` call."""
    counts = {"rows": 0, "cone": 0}
    dual_rows, make = polyhedra._dual_rows, polyhedra._cones

    def rows(*a):
        counts["rows"] += 1
        return dual_rows(*a)

    def counted_cones(*a, **kw):
        built = make(*a, **kw)
        counts["cone"] += len(built)
        return built

    monkeypatch.setattr(polyhedra, "_dual_rows", rows)
    monkeypatch.setattr(polyhedra, "_cones", counted_cones)
    return counts


def test_faces_and_facets_solve_nothing(monkeypatch):
    """The contraction chain solves once per cone it builds (6 at rank 6,
    one per top, where faces solving on their own took 126 and rebuilding
    the valuation cone per fan 12); faces of a cone with rows, the
    valuation cone and the facets of a subdivision solve nothing more."""
    counts = _counting(monkeypatch)
    for n in range(2, 7):
        counts.update(rows=0, cone=0)
        blowup_chain_fans(n)
        assert counts["rows"] <= counts["cone"]
    assert counts == {"rows": 6, "cone": 6}
    c = cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    counts.update(rows=0, cone=0)
    assert len(faces(c)) == 8 and counts["rows"] == 0
    direct = RationalCone(3, c.gens)
    faces(direct)
    assert counts["rows"] == 1 and direct._dual == c._dual
    f = fan([c, cone([[1, 0, 0], [0, 1, 0], [0, 0, -1]])])
    counts.update(rows=0, cone=0)
    star_subdivision(f, [1, 1, 1])
    assert counts["rows"] == counts["cone"] == 3


def test_faces_of_dependent_generators_refused_like_membership():
    """A cone built directly on dependent generators is refused by its first
    question; `faces` asks it now."""
    c = RationalCone(2, qm([[1, 0], [0, 1], [1, 1]]))
    with pytest.raises(InvalidInput, match="^basis rows are linearly dependent$"):
        faces(c)
    with pytest.raises(InvalidInput, match="^basis rows are linearly dependent$"):
        contains(c, (1, 1))
