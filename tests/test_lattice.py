import random
import zlib
from fractions import Fraction as Q

import pytest
from old_linalg import _old_inverse, identity_matrix, mat_mul, transpose

from weylfans import lattice as lat
from weylfans.errors import BasisChangeError, InvalidInput
from weylfans.linalg import qm, qv
from weylfans.rootsys import build_root_system
from weylfans.spherical import color_symbol, picard_presentation, spinor_divisor_ledger

FUZZ_TYPES = ["A2", "A5", "B3", "B5", "C3", "C6", "D4", "D5", "E6", "E7", "E8", "F4", "G2"]


def test_cartan_matrices():
    assert lat.cartan_matrix(build_root_system("A2")) == ((2, -1), (-1, 2))
    assert lat.cartan_matrix(build_root_system("G2")) == ((2, -1), (-3, 2))
    assert lat.cartan_matrix(build_root_system("B3")) == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    # determinants frozen from direct expansion
    assert lat.weight_root_index(build_root_system("G2")) == 1
    assert lat.weight_root_index(build_root_system("B3")) == 2


def test_weight_root_indices():
    for label, expected in [("G2", 1), ("F4", 1), ("E8", 1), ("E7", 2), ("E6", 3), ("D5", 4)]:
        assert lat.weight_root_index(build_root_system(label)) == expected
    for n in range(1, 9):
        assert lat.weight_root_index(build_root_system(f"A{n}")) == n + 1
    for n in range(2, 9):
        assert lat.weight_root_index(build_root_system(f"C{n}")) == 2


def test_inverse_cartan_identity():
    # the matrix whose columns express the weights over the simple roots is
    # the inverse transpose of the Cartan matrix
    for label in FUZZ_TYPES:
        rs = build_root_system(label)
        cols = []
        for i in range(1, rs.rank + 1):
            w = lat.to_basis(lat.fundamental_weight(rs, i), "simple_root")
            cols.append(w.coords)
        by_columns = transpose(qm(cols))
        assert by_columns == transpose(_old_inverse(qm(rs.cartan)))
        assert mat_mul(qm(cols), qm(rs.cartan)) == identity_matrix(rs.rank)


@pytest.mark.parametrize("label", FUZZ_TYPES)
def test_basis_round_trips_fuzzed(label):
    rs = build_root_system(label)
    rng = random.Random(zlib.crc32(label.encode()))
    tags = ["fund_weight", "simple_coroot", "fund_coweight", "ambient", "simple_root"]
    for _ in range(200):
        coords = qv([rng.randint(-9, 9) for _ in range(rs.rank)])
        v = lat.vector(rs, coords, "simple_root")
        t1, t2 = rng.choice(tags), rng.choice(tags)
        w = lat.to_basis(lat.to_basis(v, t1), t2)
        assert lat.to_basis(w, "simple_root").coords == coords


def test_to_basis_same_tag_is_identity():
    a2 = build_root_system("A2")
    v = lat.vector(a2, [3, -1], "fund_weight")
    assert lat.to_basis(v, "fund_weight") is v


def test_to_basis_rejects_off_span_vectors():
    a2 = build_root_system("A2")
    v = lat.vector(a2, [1, 0, 0])  # not in the sum-zero root plane
    with pytest.raises(BasisChangeError):
        lat.to_basis(v, "simple_root")
    with pytest.raises(InvalidInput):
        lat.to_basis(lat.simple_root(a2, 1), "no_such_basis")
    assert lat.to_basis(v, "ambient") is not None


def test_pairing_dualities():
    b3 = build_root_system("B3")
    for i in range(1, 4):
        for j in range(1, 4):
            delta = Q(1 if i == j else 0)
            assert lat.pair(lat.fundamental_weight(b3, i), lat.simple_coroot(b3, j)) == delta
            assert lat.pair(lat.simple_root(b3, j), lat.vector(b3, b3.fundamental_coweights[i - 1])) == delta
    theta = lat.vector(b3, b3.highest_root)
    assert lat.pair(theta, lat.highest_coroot(b3)) == 2
    # pairings of simple roots against the highest coroot, frozen
    assert [lat.pair(lat.simple_root(b3, i), lat.highest_coroot(b3)) for i in (1, 2, 3)] == [0, 1, 0]
    with pytest.raises(InvalidInput):
        lat.pair(lat.simple_root(b3, 1), lat.simple_coroot(build_root_system("A2"), 1))


def test_primitivity():
    for label in ["B3", "F4", "E8", "A5", "D4", "G2"]:
        rs = build_root_system(label)
        for i in range(1, rs.rank + 1):
            assert lat.is_primitive_in_weight_lattice(lat.simple_root(rs, i))
    for n in (2, 3, 7):
        cn = build_root_system(f"C{n}")
        assert not lat.is_primitive_in_weight_lattice(lat.simple_root(cn, n))
        for i in range(1, n):
            assert lat.is_primitive_in_weight_lattice(lat.simple_root(cn, i))
    c2 = build_root_system("C2")
    assert not lat.is_primitive_in_weight_lattice(lat.vector(c2, [0, 0], "fund_weight"))
    with pytest.raises(InvalidInput):
        lat.is_primitive_in_weight_lattice(lat.vector(c2, [Q(1, 2), 0], "fund_weight"))


def test_type_a_identities():
    for n in range(2, 13):
        rs = build_root_system(f"A{n}")
        w1 = lat.to_basis(lat.fundamental_weight(rs, 1), "simple_root")
        assert w1.coords == tuple(Q(1) - Q(i, n + 1) for i in range(1, n + 1))
        degrees = [lat.minimal_curve_degree(lat.simple_root(rs, i)) for i in range(1, n + 1)]
        assert degrees == [Q(1)] + [Q(0)] * (n - 2) + [Q(1)]
    assert lat.minimal_curve_degree(lat.vector(build_root_system("A3"), [0, 0, 0, 0])) == 0


def test_type_b_identities():
    for n in range(2, 13):
        rs = build_root_system(f"B{n}")
        wn = lat.to_basis(lat.fundamental_weight(rs, n), "simple_root")
        assert wn.coords == tuple(Q(k, 2) for k in range(1, n + 1))
        assert lat.minimal_curve_degree(lat.fundamental_weight(rs, n)) == 1


def test_type_c_rho_identity():
    # the stated expansion of the negated coweights over the negated first
    # coweight and the coroots holds exactly below the top index; at the top
    # index the two sides agree up to the factor two, spanning the same ray
    for n in range(2, 13):
        rs = build_root_system(f"C{n}")
        for k in range(1, n + 1):
            lhs = [-x for x in rs.fundamental_coweights[k - 1]]
            rhs = [Q(-k) * x for x in rs.fundamental_coweights[0]]
            for j in range(1, k):
                rhs = [r + (k - j) * c for r, c in zip(rhs, rs.simple_coroots[j - 1])]
            if k < n:
                assert tuple(rhs) == tuple(lhs), (n, k)
            else:
                assert tuple(rhs) == tuple(2 * x for x in lhs), (n, k)


def test_spinor_relation_cokernel():
    for n in (2, 3, 5, 12):
        rs = build_root_system(f"B{n}")
        pres = picard_presentation(spinor_divisor_ledger(rs))
        assert pres.free_rank == 1 and pres.torsion == ()
        assert pres.classes["OG(1)"] == (2,)
        assert pres.classes[color_symbol(n)] == (1,)
        for j in range(1, n):
            assert pres.classes[color_symbol(j)] == (2,)


def test_anticanonical_weight():
    a1 = build_root_system("A1")
    ac = lat.anticanonical_weight(a1)
    assert ac.coords == (Q(4),)
    assert lat.pair(ac, lat.simple_coroot(a1, 1)) == 4
    for label in ["B3", "G2", "E6"]:
        rs = build_root_system(label)
        ac = lat.anticanonical_weight(rs)
        assert all(c > 0 for c in ac.coords)
        # the weight is 2 rho + sum of simple roots
        direct = lat.to_basis(lat.rho(rs), "fund_weight").coords
        total = [2 * x for x in direct]
        for i in range(1, rs.rank + 1):
            root_fw = lat.to_basis(lat.simple_root(rs, i), "fund_weight").coords
            total = [t + r for t, r in zip(total, root_fw)]
        assert ac.coords == tuple(total)
