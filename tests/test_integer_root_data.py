"""Root data, Weyl group elements and basis changes on integer matrices
against the Fraction code they replaced.

The oracles below are the previous implementations, kept verbatim in
spirit: the ambient Fraction reflection closure of ``build_root_system``,
a ``WeylElement`` holding a Fraction matrix composed by ``mat_mul`` with its
``subgroup_closure``, and ``to_basis`` through the ambient model.
"""

import random
import sys
import threading
from fractions import Fraction as Q
from math import gcd

import pytest
from old_linalg import (
    _old_coroot,
    _old_inverse,
    dot,
    identity_matrix,
    mat_mul,
    mat_vec,
    transpose,
    vadd,
    vneg,
    vscale,
    vsub,
)
from test_linalg import _old_coords_in_basis

from weylfans import isotropic, jsonio
from weylfans import lattice as lat
from weylfans import rootsys, toric
from weylfans.errors import BasisChangeError, InvariantViolation
from weylfans.linalg import _unit, qm, qv
from weylfans.polyhedra import Fan, RationalCone, is_complete
from weylfans.rootsys import (
    RootSystem,
    WeylElement,
    _simple_root_model,
    build_root_system,
    coordinate_swap,
    identity_element,
    longest_element,
    parse_label,
    sign_flip,
    simple_reflection,
    subgroup_closure,
    weyl_enumerate,
    weyl_order,
)

BUNDLED_TYPES = (
    [f"A{n}" for n in range(1, 13)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 13)]
    + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


# --- oracles: the Fraction code ---------------------------------------------


def _old_root_data(type_label):
    """The ambient Fraction closure and Fraction derived data."""
    family, n = parse_label(type_label)
    # the integer model is the oracle's input, not the code under test
    dim, simple_ints, s = _simple_root_model(family, n)
    simple = tuple(tuple(Q(x, s) for x in row) for row in simple_ints)
    cartan = tuple(tuple(Q(2) * dot(a, b) / dot(b, b) for b in simple) for a in simple)
    coroots = tuple(_old_coroot(a) for a in simple)
    simple_coords = {a: _unit(n, i) for i, a in enumerate(simple)}
    queue = list(simple)
    while queue:
        beta = queue.pop()
        for i, (a, av) in enumerate(zip(simple, coroots)):
            k = dot(beta, av)
            image = vsub(beta, vscale(k, a))
            if image not in simple_coords:
                coords = list(simple_coords[beta])
                coords[i] -= k
                simple_coords[image] = tuple(coords)
                queue.append(image)
    roots = tuple(sorted(simple_coords))
    cartan_inv = _old_inverse(cartan)
    weights = tuple(
        tuple(sum((cartan_inv[i][k] * simple[k][j] for k in range(n)), Q(0)) for j in range(dim))
        for i in range(n)
    )
    coweights = tuple(
        tuple(sum((cartan_inv[k][i] * coroots[k][j] for k in range(n)), Q(0)) for j in range(dim))
        for i in range(n)
    )
    positive = [b for b in roots if sum(simple_coords[b], Q(0)) > 0]
    theta = max(positive, key=lambda b: (sum(simple_coords[b], Q(0)), simple_coords[b]))
    rho = qv([0] * dim)
    for b in positive:
        rho = vadd(rho, b)
    return {
        "roots": roots,
        "simple_coords": simple_coords,
        "cartan": cartan,
        "cartan_inverse": cartan_inv,
        "fundamental_weights": weights,
        "simple_coroots": coroots,
        "fundamental_coweights": coweights,
        "highest_root": theta,
        "rho": vscale(Q(1, 2), rho),
    }


class _OldWeylElement:
    """A Fraction matrix composed by mat_mul; equality is matrix equality."""

    def __init__(self, matrix, word=None):
        self.matrix = qm(matrix)
        self.word = tuple(word) if word is not None else None

    def compose(self, other):
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        return _OldWeylElement(mat_mul(self.matrix, other.matrix), word)


def _old_subgroup_closure(generators, bound=2000):
    dim = len(generators[0].matrix)
    ident = _OldWeylElement(identity_matrix(dim), ())
    seen = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for w in frontier:
            for g in generators:
                prod = w.compose(g)
                if prod.matrix not in seen:
                    assert len(seen) < bound
                    seen[prod.matrix] = prod
                    new_frontier.append(prod)
        frontier = new_frontier
    return [seen[m] for m in sorted(seen)]


def _old_to_basis_coords(v, target):
    """Coordinates through the ambient model; None off the root span."""
    amb = v.coords
    if v.basis != "ambient":
        amb = mat_vec(transpose(lat._basis_rows(v.rs, v.basis)), v.coords)
    if target == "ambient":
        return amb
    return _old_coords_in_basis(lat._basis_rows(v.rs, target), amb)


def _random_vector(rng, length):
    return qv(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(length))


# --- tests ------------------------------------------------------------------


def test_root_systems_match_old_fraction_closure():
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        old = _old_root_data(label)
        assert rs.roots == old["roots"], label
        assert {b: rs.simple_root_coords(b) for b in rs.roots} == old["simple_coords"], label
        for key in (
            "cartan",
            "cartan_inverse",
            "fundamental_weights",
            "simple_coroots",
            "fundamental_coweights",
            "highest_root",
            "rho",
        ):
            assert getattr(rs, key) == old[key], (label, key)
        assert all(type(x) is Q for row in rs.cartan_inverse for x in row)
        height = {b: sum(c, Q(0)) for b, c in old["simple_coords"].items()}
        positive = sorted(
            (b for b in old["roots"] if height[b] > 0),
            key=lambda b: (height[b], vneg(old["simple_coords"][b])),
        )
        assert rs.positive_root_vectors() == positive, label


def _groups():
    """Every bundled Weyl group of order <= 1152, then the casebook's
    coordinate-swap / sign-flip subgroups of F4 and E8."""
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        if weyl_order(rs) <= 1152:
            old = [_OldWeylElement(rs.reflection_matrix(i), (i + 1,)) for i in range(rs.rank)]
            yield label, rs, weyl_enumerate(rs, bound=1152), old
    for label, dim in (("F4", 4), ("E8", 8)):
        rs = build_root_system(label)
        gens = [coordinate_swap(dim, 0, dim - 1), sign_flip(dim, [0, 1])]
        yield f"{label}'", rs, subgroup_closure(gens, root_system=rs), [
            _OldWeylElement(g.matrix) for g in gens
        ]


def test_weyl_groups_match_old_fraction_elements():
    rng = random.Random(1994)
    labels = []
    for label, rs, elements, old_gens in _groups():
        labels.append(label)
        old = _old_subgroup_closure(old_gens)
        assert [w.matrix for w in elements] == [w.matrix for w in old], label
        assert [w.word for w in elements] == [w.word for w in old], label
        for w, o in zip(elements, old):
            built = WeylElement(o.matrix, o.word)
            assert built == w and hash(built) == hash(w)
            assert built.matrix == w.matrix
        for _ in range(20):
            w = rng.choice(elements)
            v = _random_vector(rng, rs.ambient_dim)
            assert w.apply(v) == mat_vec(w.matrix, v)
            u = rng.choice(elements)
            composed = w.compose(u)
            assert composed.matrix == mat_mul(w.matrix, u.matrix)
            assert composed == WeylElement(composed.matrix) and hash(composed) == hash(
                WeylElement(composed.matrix)
            )
            doc = jsonio.weyl_element_to_json(composed)
            again = WeylElement([[jsonio.str_to_fraction(x) for x in row] for row in doc["matrix"]], doc["word"])
            assert again == composed and again.word == composed.word
        # an element and its inverse compose to the identity, however the
        # denominators of the factors cancel
        ident = WeylElement(identity_matrix(rs.ambient_dim))
        for w in elements:
            assert w.compose(WeylElement(transpose(w.matrix))) == ident
    assert "F4" in labels and "A5" in labels and "E8'" in labels and len(labels) == 16


def test_orbit_walk_matches_generic_closure():
    """The walk on the orbit of rho finds the elements, order and words of
    the generic closure of the simple reflections, for every bundled type
    with |W| <= 1,920; G2 (denominators 1 and 3) and F4 (1 and 2) mix
    denominators in the sort.  Every element it builds is canonical."""
    dens = {}
    for label in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "F4", "G2"):
        rs = build_root_system(label)
        order = weyl_order(rs)
        walked = weyl_enumerate(rs, bound=1920)
        gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
        closed = subgroup_closure(gens, bound=order)
        assert walked == closed, label
        assert [w.word for w in walked] == [w.word for w in closed], label
        for w in walked:
            assert w._den > 0 and gcd(w._den, *(x for row in w._rows for x in row)) == 1, label
        dens[label] = {w._den for w in walked}
    assert dens["G2"] == {1, 3} and dens["F4"] == {1, 2}
    # the next groups of each family are above the bound: |W(A6)| = 5,040,
    # |W(B5)| = |W(C5)| = 3,840 and |W(D6)| = 23,040
    assert all(weyl_order(build_root_system(label)) > 1920 for label in ("A6", "B5", "C5", "D6"))


def test_orbit_walk_builds_each_element_once(monkeypatch):
    """One matrix product per element past the identity: 383 on B4, where
    closing the simple reflections takes one per edge, 384 * 4 = 1,536."""
    calls = []
    compose, times_reflection = WeylElement.compose, rootsys._times_reflection
    monkeypatch.setattr(WeylElement, "compose", lambda *a: calls.append(1) or compose(*a))
    monkeypatch.setattr(rootsys, "_times_reflection", lambda *a: calls.append(1) or times_reflection(*a))
    rs = build_root_system("B4")
    assert len(weyl_enumerate(rs)) == 384
    assert len(calls) == 383


def test_longest_element_matches_old_product():
    for label in ("A1", "A4", "B3", "C4", "D5", "G2", "F4", "E6", "E8"):
        rs = build_root_system(label)
        w0 = longest_element(rs)
        matrix = identity_matrix(rs.ambient_dim)
        for i in w0.word:
            matrix = mat_mul(matrix, rs.reflection_matrix(i - 1))
        assert w0.matrix == matrix and w0 == WeylElement(matrix)


def _old_longest_element(rs):
    """The Fraction descent from rho to -rho in the ambient model."""
    target = vneg(rs.rho)
    v = rs.rho
    reflections = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    w0 = identity_element(rs.ambient_dim)
    while v != target:
        i = next(k for k in range(rs.rank) if dot(v, rs.simple_coroots[k]) > 0)
        v = reflections[i].apply(v)
        w0 = reflections[i].compose(w0)
    return w0


def test_longest_element_matches_fraction_descent():
    """The descent on integer weight coordinates takes the same steps as the
    Fraction one in the ambient model, on all 48 bundled types."""
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        w0, old = longest_element(rs), _old_longest_element(rs)
        assert w0.word == old.word and (w0._rows, w0._den) == (old._rows, old._den), label
        assert len(w0.word) == len(rs.roots) // 2


def test_w0_check_on_integer_rows_matches_fraction_check(monkeypatch):
    """The closing check of longest_element, every positive root sent to a
    negative one, read on integer rows, against the Fraction check, on all 48
    bundled types.  Starting the descent at t instead of the identity ends at
    w0 t, so a start of s_1 or -1 hands the check a wrong element."""
    verdicts = {True: 0, False: 0}
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        w0 = longest_element(rs)
        pos = set(rs.positive_root_vectors())
        n = rs.ambient_dim
        for t in (identity_element(n), simple_reflection(rs, 1), sign_flip(n, range(n))):
            start = WeylElement._from_ints(t._rows, t._den, ())
            wrong = w0.compose(start)
            holds = all(vneg(wrong.apply(b)) in pos for b in pos)
            monkeypatch.setattr(rootsys, "identity_element", lambda dim: start)
            if holds:
                assert longest_element(rs) == wrong == w0, label
            else:
                with pytest.raises(InvariantViolation) as exc:
                    longest_element(rs)
                assert str(exc.value) == f"w0 does not send positive roots to negatives in {label}"
            monkeypatch.undo()
            verdicts[holds] += 1
    assert verdicts == {True: 48, False: 96}


def test_swaps_and_flips_match_fraction_construction():
    for dim in range(1, 9):
        units = [_unit(dim, k) for k in range(dim)]
        for i in range(dim):
            for j in range(dim):
                cols = list(units)
                cols[i], cols[j] = cols[j], cols[i]
                old = WeylElement(transpose(qm(cols)))
                new = coordinate_swap(dim, i, j)
                assert (new._rows, new._den) == (old._rows, old._den) and new.matrix == old.matrix
                assert new.word is None
        for mask in range(2**dim):
            indices = [k for k in range(dim) if mask >> k & 1]
            diag = [Q(-1) if k in indices else Q(1) for k in range(dim)]
            old = WeylElement(tuple(tuple(diag[r] if r == c else Q(0) for c in range(dim)) for r in range(dim)))
            new = sign_flip(dim, indices)
            assert (new._rows, new._den) == (old._rows, old._den) and new.matrix == old.matrix
            assert new.word is None


def test_basis_changes_match_old_ambient_route():
    rng = random.Random(2024)
    pairs = set()
    rejected = 0
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        for source in lat.BASIS_TAGS:
            length = rs.ambient_dim if source == "ambient" else rs.rank
            vectors = [_random_vector(rng, length) for _ in range(2)]
            if source == "ambient":
                # one vector on the root span, one ambient unit vector, which
                # lies off it whenever the ambient space is bigger
                coeffs = [rng.randint(-9, 9) for _ in range(rs.rank)]
                vectors[0] = mat_vec(transpose(rs.simple_roots), coeffs)
                vectors.append(_unit(rs.ambient_dim, rng.randrange(rs.ambient_dim)))
            for coords in vectors:
                v = lat.vector(rs, coords, source)
                assert v.ambient() == _old_to_basis_coords(v, "ambient")
                for target in lat.BASIS_TAGS:
                    if target == source:
                        continue
                    pairs.add((source, target))
                    expected = _old_to_basis_coords(v, target)
                    if expected is None:
                        rejected += 1
                        with pytest.raises(BasisChangeError):
                            lat.to_basis(v, target)
                    else:
                        assert lat.to_basis(v, target).coords == expected, (label, source, target)
                w = lat.vector(rs, _random_vector(rng, rs.rank), "fund_coweight")
                assert lat.pair(v, w) == dot(v.ambient(), w.ambient())
    assert len(pairs) == 20
    assert rejected > 0


def _iso_answers(v, flip):
    """The invariant of a subspace and whether its involution image equals
    it, asked in either order (the first one asked builds its echelon)."""
    if flip:
        fixed = isotropic.subspaces_equal(v, isotropic.tau_image(v))
        return isotropic.intersection_invariant(v), fixed
    return isotropic.intersection_invariant(v), isotropic.subspaces_equal(v, isotropic.tau_image(v))


def _fan_answers(dim, cones, lattice):
    """The names of a fan built directly on the cones, and its completeness."""
    f = Fan(dim, cones, lattice)
    return f.rays(), f._names[1], is_complete(f)


def test_lazy_views_are_safe_to_share_between_threads():
    # the basis-change matrices on a root system, the Fraction view of a
    # composed element, and a hand-built subspace's integer rows and echelon
    # are filled on first use by whichever thread asks first, and a fan
    # built directly names its rays; every thread must read the answers one
    # thread reads
    # a fresh E7 through the constructor, whose basis-change cache starts empty
    rs = RootSystem(
        **{k: v for k, v in vars(build_root_system("E7")).items() if k not in ("_basis_changes", "_coords_by_root")}
    )
    group = weyl_enumerate(build_root_system("B4"))
    rng = random.Random(7)
    vectors = [lat.vector(rs, _random_vector(rng, rs.rank), tag) for tag in lat.BASIS_TAGS[1:]]
    expected_coords = [
        [_old_to_basis_coords(v, target) for target in lat.BASIS_TAGS] for v in vectors
    ]
    expected_matrices = [WeylElement._from_ints(w._rows, w._den, w.word).matrix for w in group]
    spaces = (isotropic.symplectic_doubled(2), isotropic.symplectic_doubled(3), isotropic.orthogonal_doubled(2))
    samples = [isotropic.random_maximal_isotropic(space, seed) for space in spaces for seed in range(4)]
    samples += [isotropic.split_subspace(space) for space in spaces]
    subspaces = [isotropic.IsotropicSubspace(v.space, v.basis) for v in samples]
    expected_iso = [_iso_answers(isotropic.IsotropicSubspace(v.space, v.basis), False) for v in samples]
    chamber = toric.weyl_chamber_fan(build_root_system("B3"))
    cones = tuple(RationalCone(c.ambient_dim, c.gens, c.lattice) for c in chamber.maximal_cones)
    expected_fan = (chamber.rays(), chamber._names[1], True)
    assert _fan_answers(chamber.ambient_dim, cones, chamber.lattice) == expected_fan
    failures = []

    def work(t):
        for v, expected in zip(vectors, expected_coords):
            if [lat.to_basis(v, target).coords for target in lat.BASIS_TAGS] != expected:
                failures.append("to_basis")
        if [w.matrix for w in group] != expected_matrices:
            failures.append("matrix")
        if [_iso_answers(v, t % 2) for v in subspaces] != expected_iso:
            failures.append("isotropic")
        if _fan_answers(chamber.ambient_dim, cones, chamber.lattice) != expected_fan:
            failures.append("fan")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert {k for k, _ in expected_iso} == {0, 2, 3} and {f for _, f in expected_iso} == {False, True}
    # every (source, target) asked for, and the four (ambient, target) dual
    # rows that the changes between two bases reuse
    assert len(rs._basis_changes) == 4 * 4 + 4


def test_simple_reflections_and_highest_coroot_match_fraction_construction():
    """simple_reflection and highest_coroot on integer rows against the
    Fraction reflection matrix and coroot, on all 48 bundled types."""
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        for i in range(1, rs.rank + 1):
            s = simple_reflection(rs, i)
            old = WeylElement(rs.reflection_matrix(i - 1), (i,))
            assert s == old and s.word == (i,) and s.matrix == old.matrix
            assert (s._rows, s._den) == (old._rows, old._den)
        theta_v = lat.highest_coroot(rs)
        assert theta_v.basis == "ambient" and theta_v.coords == _old_coroot(rs.highest_root)
        assert all(type(x) is Q for x in theta_v.coords)
