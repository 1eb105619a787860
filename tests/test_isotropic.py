from fractions import Fraction as Q

import pytest
from old_linalg import vadd, vscale

from weylfans.errors import InvalidInput
from weylfans.isotropic import (
    DoubledSpace,
    IsotropicSubspace,
    check_equal_intersections,
    diagonal_subspace,
    intersection_invariant,
    lg_orbit_dim,
    og_orbit_data,
    orthogonal_doubled,
    random_maximal_isotropic,
    split_subspace,
    subspaces_equal,
    symplectic_doubled,
    tau_fixed_locus_check,
    tau_image,
)
from weylfans.linalg import _unit, qm


def test_dimension_formulas_to_25():
    for n in range(1, 26):
        for k in range(n + 1):
            dim = lg_orbit_dim(n, k)
            assert (2 * n * n + n) - dim == k * k
            rec = og_orbit_data(n, k)
            assert rec.total_dim == n * (2 * n + 1)
            assert rec.codim == k * k
            assert rec.base_dim + rec.fiber_dim == rec.orbit_dim


def test_codimension_one_uniqueness_shape():
    for n in range(2, 8):
        codims = [lg_orbit_dim(n, 0) - lg_orbit_dim(n, k) for k in range(n + 1)]
        assert codims[1] == 1
        assert all(c >= 4 for c in codims[2:])


def test_dimension_spot_values():
    assert lg_orbit_dim(3, 0) == 21
    assert lg_orbit_dim(3, 1) == 20
    assert lg_orbit_dim(3, 3) == 12  # twice the Lagrangian Grassmannian dimension
    assert og_orbit_data(3, 0).fiber_dim == 21
    with pytest.raises(InvalidInput):
        lg_orbit_dim(3, 4)


def test_base_point_invariants():
    for space in (symplectic_doubled(2), symplectic_doubled(3), orthogonal_doubled(2)):
        assert intersection_invariant(diagonal_subspace(space)) == 0
        assert intersection_invariant(split_subspace(space)) == space.half_rank


def test_non_isotropic_rejected():
    space = symplectic_doubled(2)
    rows = [_unit(space.dim, i) for i in range(4)]  # a whole summand: not isotropic
    with pytest.raises(InvalidInput):
        intersection_invariant(IsotropicSubspace(space=space, basis=qm(rows)))
    short = IsotropicSubspace(space=space, basis=qm(rows[:2]))
    with pytest.raises(InvalidInput):
        intersection_invariant(short)


@pytest.mark.parametrize("length", [8, 12])
def test_rows_of_the_wrong_length_are_refused(length):
    # orthogonal_doubled(2) has dimension 10: rows one block short, and longer
    space = orthogonal_doubled(2)
    rows = [_unit(length, i) for i in range(space.block_dim)]
    bad = IsotropicSubspace(space=space, basis=qm(rows))
    message = "^basis rows must have 10 entries, the dimension of the doubled space$"
    with pytest.raises(InvalidInput, match=message):
        intersection_invariant(bad)
    with pytest.raises(InvalidInput, match=message):
        subspaces_equal(bad, diagonal_subspace(space))
    with pytest.raises(InvalidInput, match=message):
        subspaces_equal(split_subspace(space), bad)


@pytest.mark.parametrize(
    "half_rank,kind,message",
    [
        (2, "sympletic", "^kind must be 'symplectic' or 'orthogonal', not 'sympletic'$"),
        (2, "Symplectic", "^kind must be 'symplectic' or 'orthogonal', not 'Symplectic'$"),
        (0, "symplectic", "^half rank must be at least 1$"),
        (-1, "orthogonal", "^half rank must be at least 1$"),
        (2.0, "symplectic", "^half rank must be an integer, not 2.0$"),
        (True, "orthogonal", "^half rank must be an integer, not True$"),
    ],
)
def test_doubled_space_checks_its_fields(half_rank, kind, message):
    with pytest.raises(InvalidInput, match=message):
        DoubledSpace(half_rank, kind)
    with pytest.raises(InvalidInput, match=message):
        DoubledSpace(half_rank=half_rank, kind=kind)


@pytest.mark.parametrize("make", [symplectic_doubled, orthogonal_doubled])
@pytest.mark.parametrize("n", [0, -1])
def test_factories_refuse_half_ranks_below_one(make, n):
    with pytest.raises(InvalidInput, match="^half rank must be at least 1$"):
        make(n)


def test_seed_stability():
    for space in (symplectic_doubled(2), orthogonal_doubled(2)):
        a = random_maximal_isotropic(space, 42)
        b = random_maximal_isotropic(space, 42)
        assert a.basis == b.basis
        c = random_maximal_isotropic(space, 43)
        assert c.basis != a.basis


def test_sampled_equal_intersections_small():
    rep = check_equal_intersections(symplectic_doubled(2), 50, seed=1)
    assert rep.violations == 0 and rep.samples == 50
    rep = check_equal_intersections(orthogonal_doubled(2), 25, seed=1)
    assert rep.violations == 0


def test_tau_fixed_locus():
    space = symplectic_doubled(2)
    assert subspaces_equal(split_subspace(space), tau_image(split_subspace(space)))
    assert not subspaces_equal(diagonal_subspace(space), tau_image(diagonal_subspace(space)))
    rep = tau_fixed_locus_check(space, 50, seed=0)
    assert rep.violations == 0
    with pytest.raises(InvalidInput):
        tau_fixed_locus_check(orthogonal_doubled(2), 5, seed=0)
    with pytest.raises(InvalidInput):
        tau_fixed_locus_check(space, -1, seed=0)


def test_degeneration_family_raises_invariant():
    # replace one diagonal basis pair by its boundary limit: the invariant
    # jumps from zero to one, matching the closure ordering of the strata
    space = symplectic_doubled(2)

    def member(t):
        t = Q(t)
        a1, b1 = _unit(space.dim, 0), _unit(space.dim, 2)
        a2, b2 = _unit(space.dim, 1), _unit(space.dim, 3)
        a1r, b1r = _unit(space.dim, 4), _unit(space.dim, 6)  # the second summand starts at 4
        a2r, b2r = _unit(space.dim, 5), _unit(space.dim, 7)
        rows = [
            vadd(a1, vscale(t, a1r)),
            vadd(vscale(t, b1), b1r),
            vadd(a2, a2r),
            vadd(b2, b2r),
        ]
        return IsotropicSubspace(space=space, basis=qm(rows))

    assert intersection_invariant(member(1)) == 0
    assert intersection_invariant(member(Q(1, 2))) == 0
    assert intersection_invariant(member(0)) == 1


def test_orthogonal_split_stratum_by_hand():
    # an explicit maximal isotropic with invariant one in the doubled odd
    # orthogonal space: isotropic lines mirrored in both factors plus a
    # diagonal complement inside their common perpendicular
    space = orthogonal_doubled(2)
    m = space.block_dim  # 5
    rows = [_unit(space.dim, 0), _unit(space.dim, m)]
    for i in range(1, m - 1):
        rows.append(vadd(_unit(space.dim, i), _unit(space.dim, m + i)))
    v = IsotropicSubspace(space=space, basis=qm(rows))
    assert intersection_invariant(v) == 1


def test_sample_report_shape():
    rep = check_equal_intersections(symplectic_doubled(2), 3, seed=9)
    assert set(rep.__dict__) == {"lemma", "samples", "violations", "seed"}
    assert rep.seed == 9


def _old_form(space):
    m = space.block_dim
    f0 = [[Q(0)] * m for _ in range(m)]
    if space.kind == "symplectic":
        n = space.half_rank
        for i in range(n):
            f0[i][n + i] = Q(1)
            f0[n + i][i] = Q(-1)
    else:
        for i in range(m):
            f0[i][m - 1 - i] = Q(1)
    rows = [[Q(0)] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            rows[i][j] = f0[i][j]
            rows[m + i][m + j] = -f0[i][j]
    return qm(rows)


def test_forms_read_the_signed_permutation_like_the_hand_construction():
    for n in range(1, 7):
        for space in (symplectic_doubled(n), orthogonal_doubled(n)):
            assert space.form() == _old_form(space)
            assert all(type(x) is Q for row in space.form() for x in row)
