from fractions import Fraction as Q

import pytest
from old_linalg import dot, vscale, vsub

from weylfans.errors import BoundExceeded, InvalidInput
from weylfans.linalg import qv
from weylfans.rootsys import (
    build_root_system,
    coordinate_swap,
    highest_root,
    longest_element,
    orbit,
    positive_roots,
    sign_flip,
    simple_reflection,
    subgroup_closure,
    weight_involution,
    weyl_enumerate,
    weyl_order,
)


def brute_force_roots(simple):
    """Independent oracle: breadth-first closure of the simple roots under
    their own reflections, on raw tuples."""
    simple = [qv(a) for a in simple]

    def reflect(beta, alpha):
        coeff = Q(2) * dot(beta, alpha) / dot(alpha, alpha)
        return vsub(beta, vscale(coeff, alpha))

    roots = set(simple)
    queue = list(simple)
    while queue:
        beta = queue.pop()
        for alpha in simple:
            image = reflect(beta, alpha)
            if image not in roots:
                roots.add(image)
                queue.append(image)
    return roots


KNOWN_COUNTS = {
    # (total roots, Weyl order), classical closed forms
    "A1": (2, 2),
    "A2": (6, 6),
    "A3": (12, 24),
    "B2": (8, 8),
    "B3": (18, 48),
    "C3": (18, 48),
    "C4": (32, 384),
    "D4": (24, 192),
    "G2": (12, 12),
    "F4": (48, 1152),
    "E6": (72, 51840),
    "E7": (126, 2903040),
    "E8": (240, 696729600),
}


@pytest.mark.parametrize("label", sorted(KNOWN_COUNTS))
def test_root_counts_and_orders(label):
    rs = build_root_system(label)
    count, order = KNOWN_COUNTS[label]
    assert len(rs.roots) == count
    assert weyl_order(rs) == order
    assert set(rs.roots) == brute_force_roots(rs.simple_roots)


def test_invalid_labels_rejected():
    for bad in ["B1", "C1", "D3", "E5", "E9", "F5", "G3", "H4", "A0", "X2", "G"]:
        with pytest.raises(InvalidInput):
            build_root_system(bad)


def test_g2_model_matches_coordinates():
    rs = build_root_system("G2")
    short = {b for b in rs.roots if dot(b, b) == 2}
    long_roots = {b for b in rs.roots if dot(b, b) == 6}
    assert len(short) == 6 and len(long_roots) == 6
    assert short == {
        qv(v)
        for v in [(1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1), (1, 0, -1), (-1, 0, 1)]
    }
    assert long_roots == {
        vscale(s, qv(v))
        for s in (1, -1)
        for v in [(-2, 1, 1), (1, -2, 1), (1, 1, -2)]
    }
    assert rs.fundamental_coweights[0] == qv([1, 0, -1])
    assert rs.fundamental_coweights[1] == (Q(1, 3), Q(1, 3), Q(-2, 3))


def test_f4_model_matches_coordinates():
    rs = build_root_system("F4")
    long_roots = {b for b in rs.roots if dot(b, b) == 2}
    short = {b for b in rs.roots if dot(b, b) == 1}
    assert len(long_roots) == 24 and len(short) == 24
    assert qv([1, 0, 0, 0]) in short
    assert (Q(1, 2), Q(1, 2), Q(1, 2), Q(-1, 2)) in short
    assert qv([1, 1, 0, 0]) in long_roots
    assert rs.fundamental_coweights[0] == qv([1, 0, 0, 1])
    assert rs.fundamental_coweights[3] == qv([0, 0, 0, 2])


def test_e8_model_matches_coordinates():
    rs = build_root_system("E8")
    integer = {b for b in rs.roots if all(x.denominator == 1 for x in b)}
    halves = set(rs.roots) - integer
    assert len(integer) == 112 and len(halves) == 128
    for b in halves:
        assert sum(1 for x in b if x < 0) % 2 == 0
    assert rs.fundamental_coweights[0] == qv([2, 0, 0, 0, 0, 0, 0, 0])
    assert rs.fundamental_coweights[7] == qv([1, 0, 0, 0, 0, 0, 0, 1])


def test_positive_roots_sorted_by_height():
    # oracle: positive = roots with positive height; frozen spot values below
    rs = build_root_system("A2")
    pos = positive_roots(rs)
    assert [v.coords for v in pos] == [
        qv([1, -1, 0]),
        qv([0, 1, -1]),
        qv([1, 0, -1]),
    ]
    assert len(positive_roots(build_root_system("E8"))) == 120
    assert len(positive_roots(build_root_system("A1"))) == 1


def test_highest_root_values():
    # frozen from the brute-force maximum-height element
    b3 = build_root_system("B3")
    theta = highest_root(b3)
    assert theta.coords == qv([1, 1, 0])
    assert b3.simple_root_coords(theta.coords) == qv([1, 2, 2])
    for n in (2, 5):
        an = build_root_system(f"A{n}")
        assert an.simple_root_coords(an.highest_root) == qv([1] * n)
    a1 = build_root_system("A1")
    assert a1.highest_root == a1.simple_roots[0]


def test_highest_root_is_dominant():
    for label in ["A3", "B3", "C4", "D4", "G2", "F4", "E6"]:
        rs = build_root_system(label)
        assert all(dot(rs.highest_root, cv) >= 0 for cv in rs.simple_coroots)


def test_reflection_closure_exhaustive():
    for label in ["A2", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]:
        rs = build_root_system(label)
        root_set = set(rs.roots)
        for i in range(1, rs.rank + 1):
            s = simple_reflection(rs, i)
            assert all(s.apply(b) in root_set for b in rs.roots)


RANK_LE4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]


@pytest.mark.parametrize("label", RANK_LE4)
def test_order_matches_enumeration(label):
    rs = build_root_system(label)
    assert len(weyl_enumerate(rs)) == weyl_order(rs)


def test_enumeration_bound_refused():
    with pytest.raises(BoundExceeded) as err:
        weyl_enumerate(build_root_system("E8"))
    assert "696729600" in str(err.value)


def test_orbit_stabilizer_divisibility():
    for label in RANK_LE4:
        rs = build_root_system(label)
        group = weyl_enumerate(rs)
        for cw in rs.fundamental_coweights:
            assert len(group) % len(orbit(group, cw)) == 0


def test_weyl_order_recursions():
    assert weyl_order(build_root_system("E8")) == 240 * weyl_order(build_root_system("E7"))
    assert weyl_order(build_root_system("E7")) == 126 * weyl_order(build_root_system("D6"))


def test_f4_subgroup_and_orbits():
    rs = build_root_system("F4")
    group = subgroup_closure(
        [coordinate_swap(4, 0, 3), sign_flip(4, [0, 1])], root_system=rs
    )
    assert len(group) == 8
    o1 = orbit(group, rs.fundamental_coweights[0])
    assert set(o1) == {qv(v) for v in [(1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, 1), (-1, 0, 0, -1)]}
    o4 = orbit(group, rs.fundamental_coweights[3])
    assert set(o4) == {qv(v) for v in [(2, 0, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, -2)]}


def test_e8_subgroup_closure():
    rs = build_root_system("E8")
    group = subgroup_closure(
        [coordinate_swap(8, 0, 7), sign_flip(8, [0, 1])], root_system=rs
    )
    assert len(group) == 8


def test_subgroup_closure_edge_cases():
    rs = build_root_system("A2")
    ident = simple_reflection(rs, 1).compose(simple_reflection(rs, 1))
    assert len(subgroup_closure([ident])) == 1
    with pytest.raises(BoundExceeded):
        subgroup_closure([simple_reflection(rs, 1), simple_reflection(rs, 2)], bound=3)
    bad = sign_flip(rs.ambient_dim, [0])  # does not preserve the A2 root set
    with pytest.raises(InvalidInput):
        subgroup_closure([bad], root_system=rs)


def test_g2_full_orbits():
    rs = build_root_system("G2")
    group = weyl_enumerate(rs)
    o1 = orbit(group, rs.fundamental_coweights[0])
    assert set(o1) == {
        qv(v)
        for v in [(1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1), (1, 0, -1), (-1, 0, 1)]
    }
    assert len(orbit(group, rs.fundamental_coweights[1])) == 6


def test_longest_element():
    # oracle: the greedy descent itself is checked against the defining
    # properties; the induced diagram involutions are frozen here
    for label, expected in [("C3", (1, 2, 3)), ("B3", (1, 2, 3)), ("C6", (1, 2, 3, 4, 5, 6))]:
        rs = build_root_system(label)
        assert weight_involution(rs) == expected
    for n in (2, 3, 4):
        rs = build_root_system(f"A{n}")
        assert weight_involution(rs) == tuple(range(n, 0, -1))
    a1 = build_root_system("A1")
    assert longest_element(a1) == simple_reflection(a1, 1)
    rs = build_root_system("B3")
    w0 = longest_element(rs)
    assert w0.word is not None and len(w0.word) == 9
    pos = set(rs.positive_root_vectors())
    assert {tuple(-x for x in w0.apply(b)) for b in pos} == pos


def test_weyl_matrices_preserve_inner_product():
    from old_linalg import identity_matrix, mat_mul, transpose

    for label in ["B3", "G2", "F4"]:
        rs = build_root_system(label)
        for w in weyl_enumerate(rs, bound=1200)[:24]:
            assert mat_mul(transpose(w.matrix), w.matrix) == identity_matrix(rs.ambient_dim)


def test_e8_simple_roots_pinned():
    rs = build_root_system("E8")
    assert rs.simple_roots[0] == tuple([Q(1, 2), Q(1, 2)] + [Q(-1, 2)] * 6)
    assert rs.simple_roots[1] == qv([0, 1, 1, 0, 0, 0, 0, 0])
    for k in range(3, 9):
        expected = [0] * 8
        expected[k - 2] = -1
        expected[k - 1] = 1
        assert rs.simple_roots[k - 1] == qv(expected)


def test_weyl_element_equality_is_matrix_equality():
    rs = build_root_system("A2")
    s1 = simple_reflection(rs, 1)
    assert s1 == simple_reflection(rs, 1)
    assert s1.compose(s1).word == (1, 1)
    assert s1.compose(s1) == subgroup_closure([s1])[0].compose(subgroup_closure([s1])[0])
