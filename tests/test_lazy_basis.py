"""A subspace the package builds, a draw of either kind, a base point or an
involution image, keeps its basis as integer rows over one denominator and
builds its Fraction basis on first read.  Each is built fresh here and
compared with the eager subspace the parent code built (`old_isotropic`):
the basis read first, or first through equality, the hash or the repr, is
the same tuple of `Fraction` rows, and the involution image of a kept
subspace builds no Fraction.  A subspace built by hand keeps the basis it
is given, and its involution image negates that basis as the old one did:
it matches also on rows the invariant refuses, and refuses with TypeError
the entries the old negation refused.  Six threads that read fresh subspaces at once see the
values one thread sees."""

import random
import sys
import threading
from fractions import Fraction as Q

import old_isotropic
import pytest

from weylfans import isotropic
from weylfans.isotropic import (
    IsotropicSubspace,
    diagonal_subspace,
    orthogonal_doubled,
    random_maximal_isotropic,
    split_subspace,
    symplectic_doubled,
    tau_image,
)

SPACES = [symplectic_doubled(n) for n in (1, 2, 3, 4)] + [orthogonal_doubled(n) for n in (1, 2, 3)]


def builders():
    """(label, new, old): two calls that build a fresh subspace and its
    eager oracle copy, for draws, base points and involution images."""
    out = []
    for space in SPACES:
        for seed in (0, 1, 17):
            out.append(
                (
                    f"draw {space.kind} {space.half_rank} {seed}",
                    lambda s=space, x=seed: random_maximal_isotropic(s, x),
                    lambda s=space, x=seed: old_isotropic.random_maximal_isotropic(s, x),
                )
            )
        for name in ("diagonal_subspace", "split_subspace"):
            out.append(
                (
                    f"{name} {space.kind} {space.half_rank}",
                    lambda s=space, f=name: getattr(isotropic, f)(s),
                    lambda s=space, f=name: getattr(old_isotropic, f)(s),
                )
            )
    # the involution image of each, and the image of an image
    out += [
        (f"tau {label}", lambda b=new: tau_image(b()), lambda b=old: old_isotropic.tau_image(b()))
        for label, new, old in list(out)
    ]
    out += [
        (f"tau tau {label}", lambda b=new: tau_image(b()), lambda b=old: old_isotropic.tau_image(b()))
        for label, new, old in out[-3:]
    ]
    return out


BUILDERS = builders()


def assert_fraction_rows(basis):
    assert type(basis) is tuple and all(type(row) is tuple for row in basis)
    assert all(type(x) is Q for row in basis for x in row)


@pytest.mark.parametrize("first", ["basis", "eq", "hash", "repr"])
def test_basis_is_built_on_first_read_as_the_eager_basis(first):
    for label, new, old in BUILDERS:
        v, o = new(), old()
        assert "basis" not in vars(v) and "_num" in vars(v), label
        rows, d = v._num
        assert all(type(x) is int for row in rows for x in row) and type(d) is int
        if first == "eq":
            assert v == o and not v != o
        elif first == "hash":
            assert hash(v) == hash(o)
        elif first == "repr":
            assert repr(v) == repr(o)
        basis = v.basis
        assert_fraction_rows(basis)
        assert basis == o.basis, label
        assert vars(v)["basis"] is basis and v.basis is basis
        assert v == o and hash(v) == hash(o) and repr(v) == repr(o)
        assert v._ints == o._ints
        assert [[Q(x, d) for x in row] for row in rows] == [list(row) for row in basis]


def test_involution_images_of_kept_subspaces_build_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Fraction was built")

    draws = {space: random_maximal_isotropic(space, 3) for space in SPACES}
    monkeypatch.setattr(isotropic, "Q", refuse)
    for space in SPACES:
        for v in (draws[space], diagonal_subspace(space), split_subspace(space)):
            image = tau_image(v)
            back = tau_image(image)
            assert isotropic.subspaces_equal(v, back)
            isotropic.intersection_invariant(image)
            assert not any("basis" in vars(x) for x in (v, image, back))


def hand_built_bases(space, rng):
    """Bases as a caller writes them: Fraction, int and float entries,
    lists and tuples, a zero row, rows of the wrong length and no rows."""
    dim, m = space.dim, space.block_dim
    fractions = [tuple(Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim)) for _ in range(m)]
    ints = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(m)]
    floats = [[x / 4 for x in row] for row in ints]
    zero = [(0,) * dim] + ints[1:]
    short = [row[:-1] for row in fractions]
    return [tuple(fractions), ints, floats, zero, short, (), random_maximal_isotropic(space, 2).basis]


def test_hand_built_subspaces_keep_their_basis_and_map_as_before():
    rng = random.Random(35)
    for space in SPACES:
        for basis in hand_built_bases(space, rng):
            v, o = IsotropicSubspace(space, basis), old_isotropic.IsotropicSubspace(space, basis)
            assert v.basis is basis and list(vars(v)) == ["space", "basis"]
            image, old = tau_image(v), old_isotropic.tau_image(o)
            # the basis is negated as given: no cache is written on v, and
            # the primitive rows are not read, so a refused basis maps too
            assert list(vars(v)) == ["space", "basis"] and "_ints" not in vars(image)
            assert image.basis == old.basis and image == old and repr(image) == repr(old)
            assert_fraction_rows(image.basis)
            rows, d = v._num
            assert [[Q(x, d) for x in row] for row in rows] == [list(map(Q, row)) for row in basis]


@pytest.mark.parametrize("entry", ["1/2", None, object()])
def test_involution_image_of_a_hand_built_subspace_refuses_what_negation_refuses(entry):
    space = symplectic_doubled(1)
    basis = [[1, 0, 1, 0], [0, 1, 0, entry]]
    with pytest.raises(TypeError, match="bad operand type for unary -"):
        old_isotropic.tau_image(old_isotropic.IsotropicSubspace(space, basis))
    v = IsotropicSubspace(space, basis)
    with pytest.raises(TypeError, match="bad operand type for unary -"):
        tau_image(v)
    assert list(vars(v)) == ["space", "basis"]


def test_handed_over_rows_are_kept_on_hand_built_subspaces():
    space = symplectic_doubled(2)
    draw = random_maximal_isotropic(space, 4)
    v = IsotropicSubspace(space, draw.basis, _ints=draw._ints)
    assert v.basis is draw.basis and v._ints is draw._ints and v == draw
    assert tau_image(v)._ints == tau_image(draw)._ints


def fresh():
    """Two fresh copies each of every third subspace above, side by side."""
    return [new() for _, new, _ in BUILDERS[::3] for _ in range(2)]


def reads(vs, backwards):
    """basis, == (against the subspace before it), hash and repr of each
    subspace; odd threads walk the list, and the four reads, backwards."""
    out = [None] * len(vs)
    for i in reversed(range(len(vs))) if backwards else range(len(vs)):
        v, w = vs[i], vs[i - 1]
        ops = {"basis": lambda: v.basis, "eq": lambda: v == w, "hash": lambda: hash(v), "repr": lambda: repr(v)}
        got = {name: ops[name]() for name in (reversed(ops) if backwards else ops)}
        out[i] = [got[name] for name in ops]
    return out


def test_first_reads_under_threads_see_the_single_thread_values():
    serial = reads(fresh(), False)
    shared = fresh()
    assert not any("basis" in vars(v) for v in shared)
    barrier = threading.Barrier(6)
    results, errors = [None] * 6, []

    def run(t):
        try:
            barrier.wait()
            results[t] = reads(shared, backwards=t % 2 == 1)
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors and all(r == serial for r in results)
    assert {r[1] for r in serial} == {True, False}
