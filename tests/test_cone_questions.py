"""Every cone question read off the cone's integer dual basis, against the
three encodings it replaced: nullspace equations with Fraction facet rows,
the centroid guess before an equality-constrained ambient search, and the
block system with one weight variable per generator of every cone."""

import random
from fractions import Fraction as Q
from itertools import combinations

from test_linalg import _old_dual_rows, _old_nullspace

from weylfans import polyhedra, spherical
from weylfans.errors import InvalidInput
from weylfans.linalg import (
    _unit,
    dot,
    feasible,
    is_zero_vector,
    mat_vec,
    primitive_direction,
    qm,
    qv,
    rank,
    transpose,
    vadd,
    vneg,
    vscale,
    vsub,
)
from weylfans.polyhedra import cone, contains, covered_by, zero_cone
from weylfans.rootsys import build_root_system
from weylfans.toric import weyl_chamber_fan

# --- the old encodings, kept as the oracle ----------------------------------


def _old_membership_functionals(c):
    if not c.gens:
        return [_unit(c.ambient_dim, j) for j in range(c.ambient_dim)], []
    return _old_nullspace(qm(c.gens)), list(_old_dual_rows(c.gens)[: len(c.gens)])


def _old_face_compatible(c1, c2, rays_in_c1, rays_in_c2):
    s1 = {g for g in c1.gens if g in rays_in_c2}
    s2 = {g for g in c2.gens if g in rays_in_c1}
    if s1 != s2:
        return False
    extras1 = [g for g in c1.gens if g not in s1]
    extras2 = [h for h in c2.gens if h not in s1]
    if not extras1 and not extras2:
        return True
    u = qv([0] * c1.ambient_dim)
    for g in extras1:
        u = vadd(u, g)
    for h in extras2:
        u = vsub(u, h)
    ortho = []
    for f in s1:
        v = f
        for o in ortho:
            v = vsub(v, vscale(dot(v, o) / dot(o, o), o))
        if not is_zero_vector(v):
            ortho.append(v)
    for o in ortho:
        u = vsub(u, vscale(dot(u, o) / dot(o, o), o))
    if all(dot(u, g) > 0 for g in extras1) and all(dot(u, h) < 0 for h in extras2):
        return True
    eqs = [(f, Q(0)) for f in sorted(s1)]
    ineqs = [(g, Q(1)) for g in extras1]
    ineqs += [(vneg(h), Q(1)) for h in extras2]
    return feasible(c1.ambient_dim, eqs, ineqs) is not None


def _old_relints_share_valuation_point(cones, vcone):
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
    return feasible(total, eqs, ineqs) is not None


def _old_relint_meets_valuation(c, vcone):
    if not c.gens:
        return True
    if all(contains(vcone, g) for g in c.gens):
        return True
    return _old_relints_share_valuation_point([c], vcone)


def _old_relints_overlap_in_valuation(c1, c2, vcone):
    if c1.gens == c2.gens:
        return True
    if not c1.gens or not c2.gens:
        return False
    return _old_relints_share_valuation_point([c1, c2], vcone)


def _old_covered_by(target, cover, shortcut=True):
    if not target.gens:
        return bool(cover)
    if shortcut:
        for c in cover:
            if all(contains(c, g) for g in target.gens):
                return True
    gens = target.gens
    k = len(gens)
    funcs, seen = [], set()
    for c in cover:
        eq_funcs, ineq_funcs = _old_membership_functionals(c)
        for phi in eq_funcs + ineq_funcs:
            psi = tuple(dot(phi, g) for g in gens)
            if is_zero_vector(psi):
                continue
            key = primitive_direction(psi)
            if key[next(i for i, x in enumerate(key) if x != 0)] < 0:
                key = vneg(key)
            if key not in seen:
                seen.add(key)
                funcs.append(key)

    def cell_covered(depth, constraints):
        witness = feasible(k, [], constraints)
        if witness is None:
            return True
        if depth == len(funcs):
            point = mat_vec(transpose(gens), witness)
            return any(contains(c, point) for c in cover)
        psi = funcs[depth]
        return cell_covered(depth + 1, constraints + [(psi, Q(1))]) and cell_covered(
            depth + 1, constraints + [(vneg(psi), Q(1))]
        )

    return cell_covered(0, [(_unit(k, i), Q(1)) for i in range(k)])


# --- inputs ------------------------------------------------------------------


def _independent(start, size, pool):
    """Extend start by draws from pool() up to size independent vectors."""
    gens = list(start)
    for _ in range(30):
        if len(gens) >= size:
            break
        v = pool()
        if any(v) and rank(qm(gens + [v])) == len(gens) + 1:
            gens.append(v)
    return gens


def _random_cone_pair(rng):
    """Two simplicial cones in dimension 1-4, often sharing generators, the
    second sometimes inside the first, and a valuation cone."""
    dim = rng.randint(1, 4)

    def vec():
        return qv([Q(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(dim)])

    g1 = _independent([], rng.randint(0, dim), vec)
    shared = rng.sample(g1, rng.randint(0, len(g1)))
    if g1 and rng.random() < 0.5:
        def pool():
            return mat_vec(transpose(g1), [rng.randint(0, 2) for _ in g1])
    else:
        pool = vec
    g2 = _independent(shared, rng.randint(len(shared), dim), pool)
    if rng.random() < 0.5:
        vgens = [vneg(_unit(dim, i)) for i in range(dim)]
    else:
        vgens = _independent([], rng.randint(1, dim), vec)
    return tuple(cone(g, ambient_dim=dim) if g else zero_cone(dim) for g in (g1, g2, vgens))


def _colored_and_chamber_fans():
    """(cones, valuation cone) for the type-C chain, quotient and wonderful
    colored fans of ranks 2-4 and the chamber fans of A2, B2, G2, A3, B3,
    whose dominant chamber stands in for the valuation cone."""
    for n in range(2, 5):
        colored = spherical.blowup_chain_fans(n)
        colored += [spherical.z_colored_fan(n), spherical.wonderful_colored_fan(build_root_system(f"C{n}"))]
        for f in colored:
            yield [cc.cone for cc in f.cones], f.valuation_cone
    for label in ("A2", "B2", "G2", "A3", "B3"):
        f = weyl_chamber_fan(build_root_system(label))
        yield list(f.maximal_cones), f.maximal_cones[0]


def _accepts(cones):
    try:
        polyhedra.fan(cones)
    except InvalidInput:
        return False
    return True


def _ray_sets(c1, c2):
    rays = sorted(set(c1.gens) | set(c2.gens))
    return (frozenset(r for r in rays if contains(c, r)) for c in (c1, c2))


def _compare(c1, c2, vcone, seen):
    r1, r2 = _ray_sets(c1, c2)
    compatible = polyhedra._face_compatible(c1, c2, r1, r2)
    assert compatible == _old_face_compatible(c1, c2, r1, r2)
    overlap = spherical._relints_overlap_in_valuation(c1, c2, vcone)
    assert overlap == _old_relints_overlap_in_valuation(c1, c2, vcone)
    for c in (c1, c2):
        meets = spherical._relint_meets_valuation(c, vcone)
        assert meets == _old_relint_meets_valuation(c, vcone)
        seen["meets", meets] += 1
    for target, cover in ((c1, [c2]), (c2, [c1, vcone])):
        for shortcut in (True, False):
            covered = covered_by(target, cover, shortcut)
            assert covered == _old_covered_by(target, cover, shortcut)
            seen["covered", covered] += 1
    seen["compatible", compatible] += 1
    seen["overlap", overlap] += 1


def test_cone_questions_match_old_encodings(monkeypatch):
    seen = {(q, b): 0 for q in ("compatible", "overlap", "meets", "covered") for b in (True, False)}
    rng = random.Random(1991)
    accepted = {True: 0, False: 0}
    for _ in range(500):
        c1, c2, vcone = _random_cone_pair(rng)
        _compare(c1, c2, vcone, seen)
        new = _accepts([c1, c2])
        with monkeypatch.context() as patch:
            patch.setattr(polyhedra, "_face_compatible", _old_face_compatible)
            assert _accepts([c1, c2]) == new
        accepted[new] += 1
    assert min(seen.values()) > 40 and min(accepted.values()) > 40

    fans = 0
    for cones, vcone in _colored_and_chamber_fans():
        for c1, c2 in combinations(cones, 2):
            _compare(c1, c2, vcone, seen)
        for shortcut in (True, False):
            assert covered_by(vcone, cones, shortcut) == _old_covered_by(vcone, cones, shortcut)
        # the fan itself, and the fan with one more cone inside its
        # largest cone, which must be refused
        top = max(cones, key=lambda c: c.dim)
        inside = vadd(top.gens[0], vscale(Q(1, 2), top.gens[-1]))
        inner = cone([inside, *top.gens[1:]], lattice=top.lattice, ambient_dim=top.ambient_dim)
        for candidate, valid in ((cones, True), (cones + [inner], False)):
            assert _accepts(candidate) == valid
            with monkeypatch.context() as patch:
                patch.setattr(polyhedra, "_face_compatible", _old_face_compatible)
                assert _accepts(candidate) == valid
        fans += 1
    assert fans == 20
