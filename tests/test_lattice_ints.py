"""Lattice data on integers against the Fraction code it replaced: the
simple-root coordinates each root keeps as integers, the basis changes read
off the dual bases a root system holds, the integer coordinates a lattice
vector keeps, and the longest element built by rank-one updates.

The oracles are the previous code paths: heights read off the Fraction map
of simple-root coordinates, closed-form Weyl group orders, the coordinates
through the ambient model, and w0 built by one ``compose`` per step.
"""

import random
import sys
import threading
from collections import Counter
from fractions import Fraction as Q
from math import factorial

import pytest
from old_linalg import mat_vec, transpose
from test_integer_root_data import BUNDLED_TYPES, _old_to_basis_coords, _random_vector

from weylfans import lattice as lat
from weylfans import rootsys
from weylfans.errors import BasisChangeError, InvariantViolation
from weylfans.rootsys import (
    build_root_system,
    identity_element,
    longest_element,
    simple_reflection,
    weyl_enumerate,
    weyl_order,
)

# the types of the perfbench lattice workload
LATTICE_TYPES = (
    "A1", "A2", "A3", "A4", "A6", "A8", "B2", "B3", "B4", "B6", "C2",
    "C3", "C4", "C6", "D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2",
)
SCALE_TYPES = (
    [f"A{n}" for n in range(1, 41)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 23)]
    + [f"D{n}" for n in range(4, 23)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def _closed_form_order(label):
    """|W| from the classical formulas (Bourbaki, Plates I-IX)."""
    family, n = label[0], int(label[1:])
    if family == "A":
        return factorial(n + 1)
    if family in "BC":
        return 2**n * factorial(n)
    if family == "D":
        return 2 ** (n - 1) * factorial(n)
    return {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}[label]


def _old_heights(rs):
    """(height, root) for each positive root, in the old sort: read off the
    Fraction map of simple-root coordinates, whose entries are integral."""
    keyed = []
    for b in rs.roots:
        ints = [x.numerator for x in rs.simple_root_coords(b)]
        height = sum(ints)
        if height > 0:
            keyed.append((height, [-x for x in ints], b))
    return [(height, b) for height, _, b in sorted(keyed)]


def _old_weyl_order(heights):
    """The product of the degrees: the exponents are the conjugate of the
    partition counting positive roots by height."""
    counts = Counter(heights)
    parts = [counts.get(i, 0) for i in range(1, max(counts) + 1)]
    order = 1
    for j in range(1, parts[0] + 1):
        order *= sum(1 for p in parts if p >= j) + 1
    return order


def _fresh(label):
    """A root system through its constructor, with empty lazy caches."""
    rs = build_root_system(label)
    skip = ("_basis_changes", "_coords_by_root")
    return rootsys.RootSystem(**{k: v for k, v in vars(rs).items() if k not in skip})


def test_heights_from_integer_coordinates_match_the_fraction_map():
    """weyl_order and positive_root_vectors read heights off the integer
    rows; on 106 types they give what the Fraction map gave, and the order
    is the closed form."""
    for label in SCALE_TYPES:
        rs = build_root_system(label)
        assert len(rs._simple_coords) == len(rs.roots)
        assert all(type(x) is int for c in rs._simple_coords for x in c)
        heights = _old_heights(_fresh(label))
        assert rs.positive_root_vectors() == [b for _, b in heights], label
        old = _old_weyl_order(h for h, _ in heights)
        assert weyl_order(rs) == old == _closed_form_order(label), label
    assert len(SCALE_TYPES) == 106


def test_fraction_map_is_built_on_first_read_only():
    rs = _fresh("E8")
    assert rs._coords_by_root is None
    longest_element(rs)
    assert weyl_order(rs) == 696729600 and len(rs.positive_root_vectors()) == 120
    assert rs._coords_by_root is None
    theta = rs.highest_root
    assert rs.simple_root_coords(theta) == (2, 3, 4, 6, 5, 4, 3, 2)
    assert all(type(x) is Q for x in rs.simple_root_coords(theta))
    kept = rs._coords_by_root
    assert sum(rs.simple_root_coords(theta)) == 29 and rs._coords_by_root is kept and len(kept) == 240


def test_fraction_map_fills_once_under_threads():
    """Six threads read simple-root coordinates off a fresh E7 and F4, whose
    Fraction map is built by whichever thread asks first; every thread
    reads the same answers."""
    systems = [_fresh("E7"), _fresh("F4")]
    expected = [[tuple(map(Q, c)) for c in rs._simple_coords] for rs in systems]
    barrier = threading.Barrier(6)
    failures = []

    def work():
        barrier.wait()
        for rs, coords in zip(systems, expected):
            if [rs.simple_root_coords(b) for b in rs.roots] != coords:
                failures.append(rs.label)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and failures == []
    assert all(len(rs._coords_by_root) == len(rs.roots) for rs in systems)


def test_singular_form_is_refused_before_the_closure(monkeypatch):
    """Dependent simple roots (the affine pair of A1) give a singular Cartan
    matrix, whose reflection closure would not end; the Cartan inverse
    refuses it first, with the message of the leading-minor check it
    replaced."""
    monkeypatch.setattr(rootsys, "_CACHE", {})
    monkeypatch.setattr(rootsys, "_simple_root_model", lambda family, n: (2, ((1, -1), (-1, 1)), 1))
    with pytest.raises(InvariantViolation) as exc:
        build_root_system("A2")
    assert str(exc.value) == "symmetrized Cartan form not positive definite in A2"


def test_basis_changes_make_one_elimination_per_type(monkeypatch):
    """Building the 22 types of the lattice workload and converting one
    vector through all 20 (source, target) pairs eliminates once per type
    in the lattice module, for the simple roots' dual rows; each build makes
    one more, the Cartan inverse.  The answers are the ambient route's."""
    calls = Counter()

    def counted(module):
        real = module._dual_rows

        def dual_rows(*args):
            calls[module.__name__] += 1
            return real(*args)

        monkeypatch.setattr(module, "_dual_rows", dual_rows)

    counted(lat)
    counted(rootsys)
    monkeypatch.setattr(rootsys, "_CACHE", {})
    rng = random.Random(26)
    for label in LATTICE_TYPES:
        rs = build_root_system(label)
        for source in lat.BASIS_TAGS[1:]:
            v = lat.vector(rs, _random_vector(rng, rs.rank), source)
            for target in lat.BASIS_TAGS:
                assert lat.to_basis(v, target).coords == _old_to_basis_coords(v, target)
        amb = lat.to_basis(v, "ambient")
        for target in lat.BASIS_TAGS[1:]:
            assert lat.to_basis(amb, target).coords == _old_to_basis_coords(amb, target)
        assert len(rs._basis_changes) == 20
    assert calls == {"weylfans.lattice": 22, "weylfans.rootsys": 22}


def test_ambient_changes_read_the_dual_bases():
    """Out of the ambient model the first rows are the dual basis the root
    system holds, the others the span equations of the simple roots."""
    for label in BUNDLED_TYPES:
        rs = _fresh(label)
        span = lat._change(rs, "ambient", "simple_root")[0][rs.rank :]
        for target, dual in (
            ("fund_weight", rs.simple_coroots),
            ("simple_coroot", rs.fundamental_weights),
            ("fund_coweight", rs.simple_roots),
        ):
            rows, d = lat._change(rs, "ambient", target)
            assert tuple(tuple(Q(x, d) for x in row) for row in rows[: rs.rank]) == dual
            assert rows[rs.rank :] == span
        assert len(span) == rs.ambient_dim - rs.rank
        for b in rs.roots:
            assert not any(sum(x * y for x, y in zip(row, b)) for row in span)


def test_vectors_keep_integer_coordinates():
    """A converted vector keeps the integers of its change as `_ints`, and a
    hand-built one reads them off its coordinates on first use; both agree
    with the coordinates and stay out of equality, hashing and repr."""
    rng = random.Random(2026)
    converted = 0
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        hand = [lat.vector(rs, _random_vector(rng, rs.rank), tag) for tag in lat.BASIS_TAGS[1:]]
        hand.append(lat.vector(rs, _random_vector(rng, rs.ambient_dim)))
        hand.append(lat.vector(rs, mat_vec(transpose(rs.simple_roots), [rng.randint(-4, 4) for _ in range(rs.rank)])))
        hand += [lat.fundamental_weight(rs, 1), lat.highest_coroot(rs), lat.rho(rs)]
        for v in hand:
            assert v._ints is None
            images = [lat.to_basis(v, t) for t in lat.BASIS_TAGS if t != v.basis and _fits(v, t)]
            for w in [v, *images]:
                ints, d = w._ints
                assert d > 0 and all(type(x) is int for x in ints)
                assert tuple(Q(x, d) for x in ints) == w.coords
                assert lat.LatticeVector(rs, w.basis, w.coords) == w
            converted += len(images)
    assert converted > 1000
    # hashing and repr read the root system too, so they are checked on A2
    a2 = build_root_system("A2")
    v = lat.to_basis(lat.vector(a2, [Q(1, 2), 3], "fund_weight"), "simple_root")
    again = lat.LatticeVector(a2, "simple_root", v.coords)
    assert again._ints is None and v._ints is not None
    assert again == v and hash(again) == hash(v) and repr(again) == repr(v)


def _fits(v, target):
    """Whether v has coordinates in the target basis."""
    try:
        lat.to_basis(v, target)
    except BasisChangeError:
        return False
    return True


def test_right_rank_one_update_matches_compose():
    """w s_i by the rank-one update against w.compose(s_i), on every
    element of the bundled groups of order <= 1,152 and every i."""
    checked = 0
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        if weyl_order(rs) > 1152:
            continue
        steps = [rootsys._reflection_step(alpha) for alpha in rs.simple_roots]
        for i in range(rs.rank):
            s = simple_reflection(rs, i + 1)
            for w in weyl_enumerate(rs, bound=1152):
                fast = rootsys._times_reflection(w, *steps[i], w.word + (i + 1,))
                slow = w.compose(s)
                assert (fast._rows, fast._den, fast.word) == (slow._rows, slow._den, slow.word)
                checked += 1
    assert checked > 10000


def test_longest_element_builds_no_matrix_product(monkeypatch):
    """w0 takes one rank-one update per positive root and no ``compose``;
    its rows, denominator and word are the compose-built ones."""
    old = {}
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        w = identity_element(rs.ambient_dim)
        for i in reversed(longest_element(rs).word):
            w = simple_reflection(rs, i).compose(w)
        old[label] = w
    updates = []
    real = rootsys._times_reflection
    monkeypatch.setattr(rootsys, "_times_reflection", lambda *a: updates.append(1) or real(*a))
    monkeypatch.setattr(rootsys.WeylElement, "compose", None)
    for label in BUNDLED_TYPES:
        rs = build_root_system(label)
        updates.clear()
        w0 = longest_element(rs)
        assert (w0._rows, w0._den, w0.word) == (old[label]._rows, old[label]._den, old[label].word), label
        assert len(updates) == len(rs.roots) // 2
