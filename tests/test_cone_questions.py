"""Every cone question read off the cone's integer dual basis, against the
three encodings it replaced: nullspace equations with Fraction facet rows,
the centroid guess before an equality-constrained ambient search, and the
block system with one weight variable per generator of every cone.  Then
the integer-native cone against the Fraction-keyed one before it:
membership read off signs against coordinates, colored faces kept by the
convexity shortcut against a feasibility test per face, and fans compared
by ray indices against sets of Fraction tuples.  The yes/no elimination is
checked against the witness in test_linalg."""

import inspect
import random
import threading
from fractions import Fraction as Q
from functools import cache
from itertools import combinations

from old_linalg import (
    _old_feasible,
    _old_relints_share_valuation_point,
    dot,
    mat_vec,
    transpose,
    vadd,
    vneg,
    vscale,
    vsub,
)
from test_linalg import _old_coords_in_basis, _old_dual_rows, _old_nullspace

from weylfans import polyhedra, spherical
from weylfans.errors import InvalidInput
from weylfans.linalg import _eliminate, _int_unit, _unit, is_zero_vector, primitive_direction, qm, qv, rank
from weylfans.polyhedra import RationalCone, _rows_on_weights, cone, contains, covered_by, faces, zero_cone
from weylfans.rootsys import build_root_system
from weylfans.toric import weyl_chamber_fan

# --- the old encodings, kept as the oracle ----------------------------------


@cache
def _old_membership_functionals(c):
    """Computed once per cone, a hashable record, for the whole test run."""
    if not c.gens:
        return tuple(_unit(c.ambient_dim, j) for j in range(c.ambient_dim)), ()
    return tuple(_old_nullspace(qm(c.gens))), tuple(_old_dual_rows(c.gens)[: len(c.gens)])


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
    return _old_feasible(c1.ambient_dim, eqs, ineqs) is not None


def _set_face_compatible(c1, c2, rays_in_c1, rays_in_c2):
    """The separating functional on c1's dual rows, with the shared
    generators found as sets of Fraction tuples."""
    s1 = {g for g in c1.gens if g in rays_in_c2}
    s2 = {g for g in c2.gens if g in rays_in_c1}
    if s1 != s2:
        return False
    extras2 = [h for h in c2.gens if h not in s1]
    if not extras2 and len(s1) == len(c1.gens):
        return True
    k = len(c1.gens)
    free = [j for j, g in enumerate(c1.gens) if g not in s1]
    free += range(k, c1.ambient_dim)
    on_h = _rows_on_weights(c1, extras2)
    ineqs = [(_unit(len(free), i), 1) for i, j in enumerate(free) if j < k]
    ineqs += [(tuple(-on_h[j][t] for j in free), 1) for t in range(len(extras2))]
    return _old_feasible(len(free), [], ineqs) is not None


def _set_fan_accepts(cones, face_compatible):
    """fan() validation with generator sets of Fraction tuples: maximal
    cones by subset scans, then every pair through face_compatible."""
    unique = {c.gens: c for c in cones}
    maximal = [
        c for key, c in unique.items()
        if not any(len(other) > len(key) and set(key) <= set(other) for other in unique)
    ]
    all_rays = sorted({g for c in maximal for g in c.gens})
    membership = [frozenset(r for r in all_rays if contains(c, r)) for c in maximal]
    return all(
        face_compatible(a, b, membership[i], membership[j])
        for (i, a), (j, b) in combinations(enumerate(maximal), 2)
    )


def _old_relint_meets_valuation(c, vcone):
    if not c.gens:
        return True
    if all(contains(vcone, g) for g in c.gens):
        return True
    return _old_relints_share_valuation_point([c], vcone)


def _old_covered_by(target, cover, shortcut=True):
    if not target.gens:
        return bool(cover)
    if shortcut:
        for c in cover:
            if all(contains(c, g) for g in target.gens):
                return True
    return _old_cells_covered(target, tuple(cover))


@cache
def _old_cells_covered(target, cover):
    """The cell recursion of `_old_covered_by`, which a shortcut that does
    not fire leaves to decide alone: computed once per (target, cover) for
    the whole test run."""
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
        witness = _old_feasible(k, [], constraints)
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


def _membership_face_compatible(c1, c2, ids1, ids2, rays_in_c1, rays_in_c2):
    """The face test before it read shared generators off the keys: the
    rays of the fan lying in each cone, by index, must agree on both."""
    s1 = {r for r in ids1 if r in rays_in_c2}
    if s1 != {r for r in ids2 if r in rays_in_c1}:
        return False
    extras2 = [h for h, r in zip(c2.gens, ids2) if r not in s1]
    if not extras2 and len(s1) == len(c1.gens):
        return True
    k = len(c1.gens)
    free = [*(j for j, r in enumerate(ids1) if r not in s1), *range(k, c1.ambient_dim)]
    on_h = _rows_on_weights(c1, extras2)
    ineqs = [(_int_unit(len(free), i), 1) for i, j in enumerate(free) if j < k]
    ineqs += [(tuple(-on_h[j][t] for j in free), 1) for t in range(len(extras2))]
    return _eliminate(len(free), [], ineqs)


def _membership_fan_outcome(cones):
    """fan() validation as it was: every maximal cone tested against every
    ray, then every pair through the membership face test; None when it
    accepts, else the refusal message."""
    try:
        f = polyhedra.fan(cones, validate=False)
    except InvalidInput as exc:
        return str(exc)
    index = {r: i for i, r in enumerate(f.rays())}
    maximal = f.maximal_cones
    keys = [tuple(index[g] for g in c.gens) for c in maximal]
    membership = [frozenset(i for r, i in index.items() if contains(c, r)) for c in maximal]
    for i, j in combinations(range(len(maximal)), 2):
        a, b = maximal[i], maximal[j]
        if not _membership_face_compatible(a, b, keys[i], keys[j], membership[i], membership[j]):
            return f"cones {_cone_text(a)} and {_cone_text(b)} do not intersect in a common face"
    return None


def _cone_text(c):
    """A cone's generators as a refusal writes them: ((1/2, -3), (0, 1))."""
    return "(" + ", ".join("(" + ", ".join(map(str, g)) + ")" for g in c.gens) + ")"


def _outcome(cones):
    try:
        polyhedra.fan(cones)
    except InvalidInput as exc:
        return str(exc)
    return None


def _accepts(cones):
    """fan()'s verdict, which must match the membership-based validation,
    refusal message included."""
    outcome = _outcome(cones)
    assert outcome == _membership_fan_outcome(cones)
    return outcome is None


def _old_accepts(cones):
    """Acceptance by the set-based fan validation, once with each of the
    two older face tests; both must agree."""
    old = _set_fan_accepts(cones, _old_face_compatible)
    assert _set_fan_accepts(cones, _set_face_compatible) == old
    return old


def _ray_sets(c1, c2):
    rays = sorted(set(c1.gens) | set(c2.gens))
    return (frozenset(r for r in rays if contains(c, r)) for c in (c1, c2))


def _ray_ids(c1, c2):
    """The two cones' keys: generator indices into their sorted joint ray list."""
    rays = sorted(set(c1.gens) | set(c2.gens))
    return tuple(tuple(rays.index(g) for g in c.gens) for c in (c1, c2))


def _compare_meets(c, vcone, seen):
    meets = spherical._relint_meets_valuation(c, vcone)
    assert meets == _old_relint_meets_valuation(c, vcone)
    seen["meets", meets] += 1


def _compare(c1, c2, vcone, seen):
    """Every pair question on the two cones; the valuation question reads
    one cone and is asked by `_compare_meets`."""
    r1, r2 = _ray_sets(c1, c2)
    compatible = polyhedra._face_compatible(c1, c2, *_ray_ids(c1, c2))
    assert compatible == _old_face_compatible(c1, c2, r1, r2)
    assert compatible == _set_face_compatible(c1, c2, r1, r2)
    for target, cover in ((c1, [c2]), (c2, [c1, vcone])):
        for shortcut in (True, False):
            covered = covered_by(target, cover, shortcut)
            assert covered == _old_covered_by(target, cover, shortcut)
            seen["covered", covered] += 1
    seen["compatible", compatible] += 1


def test_cone_questions_match_old_encodings():
    seen = {(q, b): 0 for q in ("compatible", "meets", "covered") for b in (True, False)}
    rng = random.Random(1991)
    accepted = {True: 0, False: 0}
    for _ in range(500):
        c1, c2, vcone = _random_cone_pair(rng)
        for c in (c1, c2):
            _compare_meets(c, vcone, seen)
        _compare(c1, c2, vcone, seen)
        new = _accepts([c1, c2])
        assert _old_accepts([c1, c2]) == new
        accepted[new] += 1
    assert min(seen.values()) > 40 and min(accepted.values()) > 40

    fans, asked = 0, set()
    for cones, vcone in _colored_and_chamber_fans():
        fans += 1
        # each distinct fan is asked once: the wonderful fan of C_n is the
        # first fan of its chain, and the quotient fan the last
        if (tuple(cones), vcone) in asked:
            continue
        asked.add((tuple(cones), vcone))
        # each cone is asked the valuation question once, not once per pair
        for c in cones:
            _compare_meets(c, vcone, seen)
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
            assert _old_accepts(candidate) == valid
    assert fans == 20 and len(asked) == 14


def test_valuation_questions_on_zero_cones():
    """The valuation question answers a zero cone with no branch of its own:
    its relative interior, the origin, meets every valuation cone.  It is
    asked of the zero cone and of both cones of each seeded pair, on the
    seeded valuation cones and those of the colored and chamber fans."""
    rng = random.Random(1776)
    pairs = [_random_cone_pair(rng) for _ in range(150)]
    pairs += [(c, c, vcone) for cones, vcone in _colored_and_chamber_fans() for c in cones[-3:]]
    seen = {(kind, answer): 0 for kind in ("zero", "c1", "c2") for answer in (True, False)}
    for c1, c2, vcone in pairs:
        zero = zero_cone(vcone.ambient_dim)
        for kind, c in (("zero", zero), ("c1", c1), ("c2", c2)):
            got = spherical._relint_meets_valuation(c, vcone)
            assert got == _old_relint_meets_valuation(c, vcone)
            seen[kind, got] += 1
    assert seen["zero", True] == len(pairs), seen
    assert min(seen[kind, answer] for kind in ("c1", "c2") for answer in (True, False)) > 60, seen


# --- the integer-native cone against the Fraction-keyed one -----------------


def _coords_contains(c, v, strict=False):
    """Membership through Fraction coordinates in the generators."""
    coords = _old_coords_in_basis(c.gens, qv(v))
    if coords is None:
        return False
    if strict:
        return all(x > 0 for x in coords)
    return all(x >= 0 for x in coords)


def _random_cone_and_points(rng):
    """A cone in dimension 1-5, some zero, some in a rational reference
    lattice, with the origin, integer and rational points off and on its
    span, and combinations of its generators with zero and negative
    weights, which land on its faces and outside it."""
    dim = rng.randint(1, 5)

    def vec():
        return qv([Q(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(dim)])

    lattice = None
    if rng.random() < 0.3:
        lattice = _independent([], dim, vec)
        if len(lattice) < dim:
            lattice = None
    gens = _independent([], rng.randint(0, dim), vec)
    c = cone(gens, lattice=lattice, ambient_dim=dim) if gens else zero_cone(dim, lattice)
    points = [[0] * dim, vec(), [rng.randint(-2, 2) for _ in range(dim)]]
    for _ in range(6):
        weights = [rng.choice((-1, 0, 0, Q(1, 2), 1, 2)) for _ in c.gens]
        p = mat_vec(transpose(c.gens), weights) if c.gens else qv([0] * dim)
        if rng.random() < 0.2:
            p = vadd(p, vscale(Q(1, 3), vec()))
        points.append(p)
    return c, points


def test_contains_reads_signs_like_coordinates():
    rng = random.Random(2010)
    seen = {(strict, answer): 0 for strict in (False, True) for answer in (False, True)}
    kinds = {"zero cone": 0, "lattice": 0, "lower-dimensional": 0}
    for _ in range(400):
        c, points = _random_cone_and_points(rng)
        kinds["zero cone"] += not c.gens
        kinds["lattice"] += c.lattice is not None
        kinds["lower-dimensional"] += 0 < c.dim < c.ambient_dim
        for p in points:
            for strict in (False, True):
                answer = contains(c, p, strict)
                assert answer == _coords_contains(c, p, strict)
                seen[strict, answer] += 1
    assert min(seen.values()) > 200 and min(kinds.values()) > 20
    # a point on a facet is in the cone and off its relative interior
    quadrant = cone([[1, 0], [0, 1]])
    assert contains(quadrant, [0, 5]) and not contains(quadrant, [0, 5], strict=True)
    assert contains(zero_cone(2), [0, 0], strict=True) and not contains(zero_cone(2), [0, 1])


def _shortcut_free_colored_faces(top, vcone, rho):
    """The colored faces with one valuation-point test per face."""
    return [
        spherical.ColoredCone(cone=f, colors=frozenset(d for d in top.colors if contains(f, rho[d])))
        for f in faces(top.cone)
        if spherical._relint_meets_valuation(f, vcone)
    ]


WONDERFUL_TYPES = (
    [f"A{n}" for n in range(2, 7)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 7)]
    + ["D4", "D5", "D6", "E6", "F4", "G2"]
)


def test_colored_faces_shortcut_matches_a_test_per_face():
    fans = []
    for n in range(2, 7):
        rs = build_root_system(f"C{n}")
        fans += spherical.blowup_chain_fans(n)
        fans += [spherical.z_colored_fan(n), spherical.wonderful_colored_fan(rs)]
    fans += [spherical.wonderful_colored_fan(build_root_system(t)) for t in WONDERFUL_TYPES]
    dropped = 0
    for f in fans:
        top = max(f.cones, key=lambda cc: cc.cone.dim)
        got = [cc for _, cc in spherical._colored_faces(top, f.valuation_cone, f.rho_table)]
        assert got == _shortcut_free_colored_faces(top, f.valuation_cone, f.rho_table)
        dropped += 2 ** top.cone.dim - len(got)
    assert len(fans) == 51 and dropped > 100


def test_fan_compares_ray_indices_like_fraction_sets():
    rng = random.Random(324)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        c1, c2, vcone = _random_cone_pair(rng)
        cones = [c1, c2, vcone, *faces(c1)[1:3]]
        rng.shuffle(cones)
        verdict = _accepts(cones)
        assert verdict == _set_fan_accepts(cones, _set_face_compatible)
        if verdict:
            maximal = polyhedra.fan(cones).maximal_cones
            unique = {c.gens: c for c in cones}
            expected = sorted(
                key for key in unique if not any(len(o) > len(key) and set(key) <= set(o) for o in unique)
            )
            assert [c.gens for c in maximal] == expected
        verdicts[verdict] += 1
    assert min(verdicts.values()) > 30


def _rays_in_faces(cones):
    """Two broken versions of a fan, in each of which a ray of one maximal
    cone lies in a face of another without being its generator: the largest
    cone star-subdivided at p, the sum of its first two generators, beside
    neighbours that keep that face whole (a valid fan again when the cone
    has two generators, so the face is the cone); and the fan plus the cone
    on p and the negated first generator, which meets the largest cone in
    the cone on p and the second generator."""
    top = max(cones, key=lambda c: c.dim)
    g0, g1 = top.gens[:2]
    p = vadd(g0, g1)
    sub = polyhedra.star_subdivision(polyhedra.fan([top]), p).maximal_cones
    wedge = cone([p, vneg(g0)], lattice=top.lattice, ambient_dim=top.ambient_dim)
    return [[*(c for c in cones if c is not top), *sub], [*cones, wedge]]


def test_fan_validation_reads_shared_generators_not_ray_membership(monkeypatch):
    """fan() gives the membership-based verdict and refusal message on the
    seeded cone pairs and on rays placed in the faces of the chamber and
    colored fans; its pairwise validation, forced on every case, gives them
    without testing any ray against any cone.  (The certificate in front of
    it tests one interior point of the first cone against the others.)"""
    assert list(inspect.signature(polyhedra._face_compatible).parameters) == ["c1", "c2", "key1", "key2"]
    cases = [list(_random_cone_pair(random.Random(seed))) for seed in range(60)]
    for cones, _ in _colored_and_chamber_fans():
        cases += _rays_in_faces(cones)

    def refuse(*args, **kwargs):
        raise AssertionError("fan validation tested ray membership")

    verdicts = {True: 0, False: 0}
    for cones in cases:
        expected = _membership_fan_outcome(cones)
        assert _outcome(cones) == expected
        with monkeypatch.context() as m:
            m.setattr(polyhedra, "_certified_complete", lambda *args: False)
            m.setattr(polyhedra, "_support", refuse)
            m.setattr(polyhedra, "contains", refuse)
            assert _outcome(cones) == expected
        verdicts[expected is None] += 1
    assert min(verdicts.values()) >= 40


def test_dual_rows_fill_once_under_threads(monkeypatch):
    """Six threads fill and read the rows of the same fresh cones, and take
    their faces, which read their rows off the cone's."""
    rng = random.Random(61)
    specs = []
    for _ in range(80):
        dim = rng.randint(1, 5)
        gens = _independent(
            [], rng.randint(0, dim), lambda: qv([Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)])
        )
        points = [qv([Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]) for _ in range(3)]
        specs.append((dim, tuple(gens), points))
    cones = [RationalCone(dim, gens) for dim, gens, _ in specs]
    # no cone holds rows yet: the reads below solve each, in one thread or more
    solved, solve = [], polyhedra._dual_rows
    monkeypatch.setattr(polyhedra, "_dual_rows", lambda gens, dim: solved.append(gens) or solve(gens, dim))
    barrier = threading.Barrier(6)
    results, errors = [None] * 6, []

    def work(t):
        try:
            barrier.wait()
            order = range(len(cones)) if t % 2 else range(len(cones) - 1, -1, -1)
            answers = {}
            for i in order:
                c = cones[i]
                face_rows = [(f, f._dual, [contains(f, p) for p in specs[i][2]]) for f in faces(c)]
                answers[i] = (c._dual, [contains(c, p) for p in specs[i][2]], face_rows)
            results[t] = [answers[i] for i in range(len(cones))]
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert not errors and all(r == results[0] for r in results)
    assert {id(g) for g in solved} == {id(c.gens) for c in cones} and len(solved) <= 6 * len(cones)
    for c, (dim, gens, points), (dual, answers, face_rows) in zip(cones, specs, results[0]):
        rows, d = dual
        assert c._dual == dual and d > 0
        if gens:
            assert tuple(tuple(Q(x, d) for x in row) for row in rows) == _old_dual_rows(gens)
        else:
            assert dual == (tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)), 1)
        assert answers == [_coords_contains(c, p) for p in points]
        assert [f.gens for f, _, _ in face_rows] == [f.gens for f in faces(c)]
        for f, (rows, d), face_answers in face_rows:
            assert d == dual[1] and sorted(rows) == sorted(dual[0])
            assert face_answers == [_coords_contains(f, p) for p in points]
