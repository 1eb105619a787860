"""Colored faces read off the extreme-ray supports of each top cone, against
the per-face elimination before them, and extensions checked from the
largest source cone down, against the scan of every source cone before
them.  The two old functions are kept here verbatim as the oracles; both
are compared on outcomes, exceptions included."""

import random
from fractions import Fraction as Q

import pytest
from old_kernels import _point_ints, holds
from test_colored_face_relation import _hand_fan, _hand_fans, _outcome
from test_cone_questions import WONDERFUL_TYPES, _independent

from weylfans import spherical
from weylfans.errors import InvalidInput
from weylfans.linalg import _common_ints, _int_mat_vec, _unit, qv
from weylfans.polyhedra import _face_subsets, cone, contains, faces, zero_cone
from weylfans.rootsys import build_root_system
from weylfans.spherical import (
    ColoredCone,
    ColoredFan,
    _check_face_bound,
    _colored_faces,
    _relint_meets_valuation,
    color_symbol,
    extends_to_morphism,
)

# --- the code before, kept as the oracle --------------------------------------


def _old_colored_faces(top, vcone, rho):
    c = top.cone
    _check_face_bound(c.dim)
    inside = [contains(vcone, g) for g in c.gens]
    out = []
    for subset, f in zip(_face_subsets(c.dim), faces(c)):
        if all(inside[i] for i in subset) or _relint_meets_valuation(f, vcone):
            kept = frozenset(d for d in top.colors if contains(f, rho[d]))
            out.append((subset, ColoredCone(cone=f, colors=kept)))
    return out


def _old_extends_to_morphism(source, target, lattice_map=None, dominant_colors=()):
    dominant = frozenset(dominant_colors)
    if lattice_map is not None:
        if len(lattice_map) != target.rank or any(len(row) != source.rank for row in lattice_map):
            raise InvalidInput(f"lattice map must be {target.rank} rows of length {source.rank}")
        rows, _ = _common_ints([qv(row) for row in lattice_map])

    for cc in source.cones:
        mapped = [g if lattice_map is None else _int_mat_vec(rows, 1, g)[0] for g in cc.cone.gens]
        points = [_point_ints(g) for g in mapped]
        found = False
        for tc in target.cones:
            if mapped and len(mapped[0]) != tc.cone.ambient_dim:
                raise InvalidInput("dimension mismatch in cone membership")
            if all(holds(tc.cone, w) for w in points) and all(
                d in dominant or d in tc.colors for d in cc.colors
            ):
                found = True
                break
        if not found:
            return False
    return True


# --- inputs -------------------------------------------------------------------


def _type_c_fans(ranks):
    """(rank, chain fans, quotient fan, wonderful fan) of type C."""
    for n in ranks:
        yield n, spherical.blowup_chain_fans(n), spherical.z_colored_fan(n), spherical.wonderful_colored_fan(
            build_root_system(f"C{n}")
        )


def _top(f):
    return max(f.cones, key=lambda cc: cc.cone.dim)


def _random_triple(rng):
    """A top colored cone, a valuation cone and color images in dimension
    2-5: the valuation cone is the negative orthant, a random full cone, a
    lower-dimensional one or the zero cone; the colors are zero, inside the
    top, on a face of it, or drawn at random (mostly off the top)."""
    dim = rng.randint(2, 5)

    def vec():
        return qv([Q(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(dim)])

    top = _independent([], rng.randint(0, dim), vec)
    kind = rng.choice(("orthant", "full", "lower", "zero"))
    if kind == "orthant":
        vcone = cone([_unit(dim, i, -1) for i in range(dim)])
    elif kind == "zero":
        vcone = zero_cone(dim)
    else:
        size = dim if kind == "full" else rng.randint(1, dim - 1)
        vcone = cone(_independent([], size, vec), ambient_dim=dim)
    rho = {}
    for j in range(4):
        draw = rng.random()
        if draw < 0.1:
            rho[f"c{j}"] = qv([0] * dim)
        elif draw < 0.6 and top:
            weights = [rng.choice((0, 0, 1, 2, Q(1, 3))) for _ in top]
            rho[f"c{j}"] = qv([sum(w * g[i] for w, g in zip(weights, top)) for i in range(dim)])
        else:
            rho[f"c{j}"] = vec()
    colors = frozenset(d for d in rho if rng.random() < 0.7)
    c = cone(top, ambient_dim=dim) if top else zero_cone(dim)
    return ColoredCone(cone=c, colors=colors), vcone, rho, kind


# --- colored faces ------------------------------------------------------------


def _counting(monkeypatch, name):
    calls = []
    real = getattr(spherical, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spherical, name, counted)
    return calls


def test_colored_faces_match_the_per_face_elimination(monkeypatch):
    eliminations = _counting(monkeypatch, "_eliminate")
    compared = 0
    for n, chain, z, x in _type_c_fans(range(2, 9)):
        for f in [*chain, z, x]:
            top = _top(f)
            del eliminations[:]
            got = _colored_faces(top, f.valuation_cone, f.rho_table)
            # no elimination on the chain, quotient and wonderful fans
            assert eliminations == []
            assert got == _old_colored_faces(top, f.valuation_cone, f.rho_table)
            compared += 1
    assert compared == sum(n + 2 for n in range(2, 9))
    for label in WONDERFUL_TYPES:
        f = spherical.wonderful_colored_fan(build_root_system(label))
        top = _top(f)
        assert _colored_faces(top, f.valuation_cone, f.rho_table) == _old_colored_faces(
            top, f.valuation_cone, f.rho_table
        )
    assert len(WONDERFUL_TYPES) == 21


def test_colored_faces_match_on_random_tops():
    rng = random.Random(1996)
    seen = {"kept": 0, "dropped": 0, "colored": 0, "uncolored": 0}
    kinds = {"orthant": 0, "full": 0, "lower": 0, "zero": 0}
    off_top = 0
    for _ in range(320):
        top, vcone, rho, kind = _random_triple(rng)
        got = _outcome(lambda: _colored_faces(top, vcone, rho))
        assert got == _outcome(lambda: _old_colored_faces(top, vcone, rho))
        assert got[0] == "value"
        kinds[kind] += 1
        seen["kept"] += len(got[1])
        seen["dropped"] += 2 ** top.cone.dim - len(got[1])
        for _, cc in got[1]:
            seen["colored" if cc.colors else "uncolored"] += 1
        off_top += sum(not contains(top.cone, rho[d]) for d in top.colors)
    assert min(seen.values()) > 100 and min(kinds.values()) > 50 and off_top > 100, (seen, kinds, off_top)


def test_chain_tops_have_rank_many_extreme_rays(monkeypatch):
    supports = []
    real = spherical._extreme_ray_supports
    monkeypatch.setattr(spherical, "_extreme_ray_supports", lambda *a: supports.append(real(*a)) or supports[-1])
    for n in (4, 8):
        for f in spherical.blowup_chain_fans(n):
            del supports[:]
            _colored_faces(_top(f), f.valuation_cone, f.rho_table)
            assert len(supports) == 1 and len(supports[0]) == n


def test_colored_faces_fall_back_to_one_question_per_face(monkeypatch):
    """A ray list past its bound leaves each face to `_relint_meets_valuation`,
    with the same colored faces."""
    f = spherical.blowup_chain_fans(4)[2]
    top = _top(f)
    real = spherical._extreme_ray_supports
    results = []
    monkeypatch.setattr(spherical, "_extreme_ray_supports", lambda *a: results.append(real(*a[:-1], 1)) or results[-1])
    questions = _counting(monkeypatch, "_relint_meets_valuation")
    got = _colored_faces(top, f.valuation_cone, f.rho_table)
    assert results == [None] and len(questions) == 2**4
    monkeypatch.undo()
    assert got == _colored_faces(top, f.valuation_cone, f.rho_table) == _old_colored_faces(
        top, f.valuation_cone, f.rho_table
    )


# --- extensions ---------------------------------------------------------------


def _extension_inputs():
    """(source, target, lattice map, dominant colors): every ordered pair of
    the type-C chain, quotient and wonderful fans of ranks 2-7 with no color
    dominant, and a pair of one rank also with the first color dominant and
    under twice the identity.  A pair of two ranks refuses."""
    fans = [f for _, chain, z, x in _type_c_fans(range(2, 8)) for f in [*chain, z, x]]
    for source in fans:
        for target in fans:
            yield source, target, None, ()
            if source.rank == target.rank:
                yield source, target, None, (color_symbol(1),)
                yield source, target, [[2 * int(i == j) for j in range(source.rank)] for i in range(target.rank)], ()


def _hand_extension_inputs():
    """Hand-built fans of C3: the relation test's fans, a face carrying a
    color its top lacks and its top without the face, the zero cone alone
    and no cone, each against the C3 library fans and each other, both
    ways."""
    c3 = build_root_system("C3")
    rho = spherical.standard_rho_table(c3)
    d1, d2 = color_symbol(1), color_symbol(2)
    e1, e2 = _unit(3, 0, -1), _unit(3, 1, -1)
    zero = ColoredCone(cone=zero_cone(3), colors=frozenset())
    hand = [f for _, f in _hand_fans()]
    hand.append(_hand_fan(c3, [
        zero,
        ColoredCone(cone=cone([e1, rho[d1]], ambient_dim=3), colors=frozenset()),
        ColoredCone(cone=cone([rho[d1]], ambient_dim=3), colors=frozenset({d1})),
        ColoredCone(cone=cone([e1, e2], ambient_dim=3), colors=frozenset({d2})),
        ColoredCone(cone=cone([e1], ambient_dim=3), colors=frozenset({d1, d2})),
    ]))
    # the top with and without its colored face: only the face's color
    # tells the two apart
    top = ColoredCone(cone=cone([e1, rho[d1]], ambient_dim=3), colors=frozenset())
    face = ColoredCone(cone=cone([rho[d1]], ambient_dim=3), colors=frozenset({d1}))
    hand += [_hand_fan(c3, [zero, top, face]), _hand_fan(c3, [zero, top])]
    hand += [_hand_fan(c3, [zero]), _hand_fan(c3, [])]
    _, chain, z, x = next(_type_c_fans([3]))
    for h in hand:
        for f in [*chain, z, x, *hand]:
            for dominant in ((), (d1,), (d1, d2)):
                yield h, f, None, dominant
                yield f, h, None, dominant


def test_extensions_match_the_scan_of_every_source_cone():
    seen = {(kind, answer): 0 for kind in ("library", "hand") for answer in (True, False, "raises")}
    for kind, inputs in (("library", _extension_inputs()), ("hand", _hand_extension_inputs())):
        for source, target, lattice_map, dominant in inputs:
            got = _outcome(lambda: extends_to_morphism(source, target, lattice_map, dominant))
            assert got == _outcome(lambda: _old_extends_to_morphism(source, target, lattice_map, dominant))
            seen[kind, got[1] if got[0] == "value" else "raises"] += 1
    # hand-built fans share the rank of their targets, so none raises
    assert seen.pop(("hand", "raises")) == 0 and min(seen.values()) > 100, seen


def _mixed_fan():
    """The C3 wonderful fan, and it with one cone of the C2 fan appended."""
    x = spherical.wonderful_colored_fan(build_root_system("C3"))
    x2 = spherical.wonderful_colored_fan(build_root_system("C2"))
    return x, ColoredFan(x.rank, x.cones + x2.cones[1:2], x.valuation_cone, x.rho_table, x.colors, x.boundary_names)


def test_mixed_dimension_target_always_raises():
    """The one outcome allowed to change: the dimensions are checked before
    any cone is read, so a target whose cones differ in ambient dimension
    raises however the cones are ordered, where the scan returned early."""
    x, mixed = _mixed_fan()
    assert _old_extends_to_morphism(x, mixed) is True
    reordered = ColoredFan(x.rank, mixed.cones[::-1], x.valuation_cone, x.rho_table, x.colors, x.boundary_names)
    for target in (mixed, reordered):
        with pytest.raises(InvalidInput, match="dimension mismatch"):
            extends_to_morphism(x, target)


def test_valuation_meet_refuses_another_ambient_dimension():
    """A cone and a valuation cone of different ambient dimensions are
    refused as `contains` refuses a point of the wrong length, so
    `orbit_poset` refuses a fan whose cones differ in ambient dimension."""
    with pytest.raises(InvalidInput, match="^dimension mismatch in cone membership$"):
        _relint_meets_valuation(cone([[-1, 0, 5]]), cone([[-1, 0], [0, -1]]))
    with pytest.raises(InvalidInput, match="^dimension mismatch in cone membership$"):
        contains(cone([[-1, 0], [0, -1]]), (-1, 0, 5))
    with pytest.raises(InvalidInput, match="^dimension mismatch in cone membership$"):
        spherical.orbit_poset(_mixed_fan()[1])
