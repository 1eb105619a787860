"""Each integer computation written once, against the copies it replaced.

The oracles are kept in old_linalg: the Smith normal form that kept T and
T^-1 in step, the ``saturation_basis`` that read T off it, and the
``_lattice_ints`` that read coordinates off the lattice's full dual rows.
The package's Smith form tracks T^-1 alone, ``saturation_basis`` inverts
it, ``_lattice_ints`` reads the same dual rows, solved per call or handed
over once per fan, and a subtorus fan checks its plane through its cones' lattice instead of a rank test per
group element.
"""

import random
from fractions import Fraction as Q

import pytest
from old_linalg import _lattice_ints as old_lattice_ints
from old_linalg import saturation_basis as old_saturation_basis
from old_linalg import smith_normal_form as old_smith_normal_form

from weylfans import polyhedra, spherical, toric
from weylfans.casebook import RANK_LE8_TYPES, _e8_wprime, _f4_wprime
from weylfans.errors import InvalidInput
from weylfans.linalg import qm, qv, rank, saturation_basis, smith_normal_form
from weylfans.polyhedra import _lattice_ints
from weylfans.rootsys import (
    WeylElement, build_root_system, identity_element, sign_flip, simple_reflection, weyl_enumerate,
)
from weylfans.spherical import DivisorLedger, picard_presentation, spinor_divisor_ledger, wonderful_divisor_ledger


def _outcome(compute):
    """The value, or the refusal's message."""
    try:
        return compute()
    except InvalidInput as exc:
        return ("refused", str(exc))


def _relation_matrices(rng, count):
    """Seeded integer matrices up to 6 x 7; rows scaled by 2, 3 or 6 and
    repeated rows give cokernels with torsion and zero invariant factors."""
    out = []
    for _ in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        m = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        for row in m:
            factor = rng.choice((1, 1, 2, 3, 6))
            row[:] = [factor * x for x in row]
        if nrows > 1 and rng.random() < 0.3:
            m[-1] = list(m[0])
        out.append(m)
    return out


# --- Smith normal form, saturation and Picard groups -------------------------


def test_smith_normal_form_matches_two_transform_oracle():
    rng = random.Random(14)
    torsion = singular = 0
    for m in _relation_matrices(rng, 400):
        diag, t_inv = smith_normal_form(m)
        old_diag, old_t, old_t_inv = old_smith_normal_form(m)
        assert (diag, t_inv) == (old_diag, old_t_inv)
        k = sum(1 for d in diag if d != 0)
        torsion += any(d > 1 for d in diag)
        singular += k < len(m)
        # saturation on integer rows and on rational multiples of them: the
        # package's T, read off t_inv, is the oracle's t[:k] row for row
        rational = [[Q(x, rng.randint(1, 6)) for x in row] for row in m]
        for vectors in (m, rational):
            assert saturation_basis(vectors) == old_saturation_basis(vectors)
    assert torsion > 100 and singular > 100
    assert saturation_basis([[0, 0], []]) == old_saturation_basis([[0, 0], []]) == ()


def _ledgers():
    yield from (wonderful_divisor_ledger(build_root_system(label)) for label in RANK_LE8_TYPES)
    yield from (spinor_divisor_ledger(build_root_system(f"B{n}")) for n in range(2, 9))
    rng = random.Random(1307)
    for m in _relation_matrices(rng, 300):
        yield DivisorLedger(symbols=tuple(f"S{j}" for j in range(len(m[0]))), relations=tuple(map(tuple, m)))


def test_picard_presentation_matches_two_transform_oracle(monkeypatch):
    ledgers = list(_ledgers())
    new = [picard_presentation(ledger) for ledger in ledgers]
    monkeypatch.setattr(spherical, "smith_normal_form", lambda m: old_smith_normal_form(m)[::2])
    old = [picard_presentation(ledger) for ledger in ledgers]
    assert new == old
    assert len(new) >= 300 + len(RANK_LE8_TYPES) + 7
    assert sum(1 for p in new if p.torsion) > 50


# --- lattice coordinates from one elimination --------------------------------


def _random_lattice(rng, dim, k, dependent):
    """k seeded rational rows in Q^dim, independent unless asked otherwise."""
    while True:
        rows = [[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)] for _ in range(k)]
        if dependent:
            if k == 1:
                return qm([[0] * dim])
            i, j = rng.sample(range(k), 2)
            rows[i] = [Q(rng.randint(-3, 3), rng.randint(1, 2)) * x for x in rows[j]]
            return qm(rows)
        if rank(qm(rows)) == k:
            return qm(rows)


def _random_vectors(rng, lattice, dim, k):
    """Combinations of the lattice rows, some moved off their span, some of
    another length, in seeded order."""
    out = []
    for _ in range(rng.randint(1, 5)):
        lam = [Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)]
        v = [sum((c * row[i] for c, row in zip(lam, lattice)), Q(0)) for i in range(dim)]
        kind = rng.random()
        if kind < 0.25:
            v = [x + rng.randint(-2, 2) for x in v]
        elif kind < 0.3:
            v = v + [Q(1)] if rng.random() < 0.5 or dim == 1 else v[:-1]
        out.append(qv(v))
    return out


def test_lattice_ints_match_dual_row_oracle(monkeypatch):
    """One solve per call, none when the lattice's rows are handed over,
    and the oracle's answer or refusal either way."""
    calls = []
    dual_rows = polyhedra._dual_rows
    monkeypatch.setattr(polyhedra, "_dual_rows", lambda *a: calls.append(1) or dual_rows(*a))
    rng = random.Random(1411)
    seen = {"coords": 0, "off span": 0, "length": 0, "dependent": 0, "rank 0": 0, "full rank": 0}
    for _ in range(600):
        dim = rng.randint(1, 5)
        k = rng.randint(0, dim + 1)
        dependent = k > dim or (k > 0 and rng.random() < 0.15)
        lattice = _random_lattice(rng, dim, k, dependent) if k else ()
        vectors = _random_vectors(rng, lattice, dim, k) if k else [qv([rng.randint(-1, 1) for _ in range(dim)])]
        name = rng.choice(("vector", "generator {}"))
        calls.clear()
        got = _outcome(lambda: _lattice_ints(lattice, vectors, name))
        assert got == _outcome(lambda: old_lattice_ints(lattice, vectors, name))
        assert len(calls) == (0 if any(len(v) != dim for v in vectors) else 1)
        message = got[1] if got[0] == "refused" else ""
        if calls and message != "basis rows are linearly dependent":
            rows = dual_rows(lattice, dim)
            calls.clear()
            assert _outcome(lambda: _lattice_ints(lattice, vectors, name, rows)) == got and not calls
        seen["coords"] += not message
        seen["off span"] += message.endswith("span of the reference lattice")
        seen["length"] += any(len(v) != dim for v in vectors)
        seen["dependent"] += message == "basis rows are linearly dependent"
        seen["rank 0"] += k == 0
        seen["full rank"] += k == dim and not message
    assert min(seen.values()) > 30, seen
    # the standard lattice and an empty batch take no elimination
    calls.clear()
    assert _lattice_ints(None, [qv([1, Q(1, 2)])]) == old_lattice_ints(None, [qv([1, Q(1, 2)])]) == ([[2, 1]], 2)
    assert _lattice_ints(qm([[1, 0]]), []) == old_lattice_ints(qm([[1, 0]]), []) == ([], 1)
    assert calls == []


# --- the subtorus plane check ------------------------------------------------


def test_subtorus_fans_check_the_plane_through_their_cones(monkeypatch):
    """The F4, E8 and G2 subtorus fans build with no rank test, and a group
    that moves the plane is refused with the exact message."""

    def no_rank(*args):
        raise AssertionError("subtorus_closure_fan called rank")

    monkeypatch.setattr(toric, "rank", no_rank)
    g2 = build_root_system("G2")
    cases = [
        (*_f4_wprime(), None, 8),
        (*_e8_wprime(), None, 8),
        (g2, weyl_enumerate(g2), g2.fundamental_coweights, 12),
    ]
    for rs, group, plane, count in cases:
        assert len(toric.subtorus_closure_fan(rs, group, plane).maximal_cones) == count
        mover = sign_flip(rs.ambient_dim, [0]) if plane else simple_reflection(rs, 1)
        for g in ([mover], [*group, mover]):
            with pytest.raises(InvalidInput, match="^the given subgroup does not stabilize the plane$"):
                toric.subtorus_closure_fan(rs, g, plane)
        # an element of the wrong dimension keeps its own message
        with pytest.raises(InvalidInput, match="^dimension mismatch in dot product$"):
            toric.subtorus_closure_fan(rs, [identity_element(rs.ambient_dim + 1)], plane)
    rs, group = _f4_wprime()
    with pytest.raises(InvalidInput, match="^subtorus translates fail to tile the plane$"):
        toric.subtorus_closure_fan(rs, [identity_element(4)])
    # a singular map keeping the plane, which sends its two coweights
    # (1, 0, 0, 1) and (0, 0, 0, 2) to opposite rays, keeps the cone's message
    fold = WeylElement(qm([[Q(3, 2), 0, 0, Q(-1, 2)], [0] * 4, [0] * 4, [0] * 4]))
    independent = r"^cone generators must be linearly independent \(simplicial cones only\)$"
    with pytest.raises(InvalidInput, match=independent):
        toric.subtorus_closure_fan(rs, [*group, fold])
