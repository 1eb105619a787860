"""The cone layer on integers against the Fraction path it replaced.

`cone` dedupes and sorts primitive integer rows on the standard lattice and
solves the dual basis on them; a caller building many cones on one
reference lattice solves it once and hands the rows to each cone; ray
names hash each generator object once; the valuation cone and the chamber
cones get their dual bases from their structure.  The oracles are the
Fraction routines in old_linalg (`fraction_cone`, `echelon_lattice_ints`,
`fraction_ray_keys`) and cones whose rows are `_dual_rows` of their own
generators.
"""

import random
import sys
import threading
from fractions import Fraction as Q
from operator import mul

import pytest
from old_linalg import echelon_lattice_ints, fraction_cone, fraction_ray_keys

from weylfans import jsonio, linalg, polyhedra
from weylfans._record import Record
from weylfans.errors import BoundExceeded, InvalidInput
from weylfans.linalg import _dual_rows, qm, qv, rank, saturation_basis
from weylfans.polyhedra import (
    RationalCone, _certified_complete, _lattice_ints, _ray_keys, cone, contains, covered_by, faces, fan, is_smooth,
)
from weylfans.rootsys import RootSystem, build_root_system
from weylfans.spherical import blowup_chain_fans, valuation_cone, wonderful_colored_fan
from weylfans.toric import weyl_chamber_fan


def _outcome(compute):
    try:
        return compute()
    except InvalidInput as exc:
        return ("refused", str(exc))


def _lattices(rng, dim):
    """None, a scaled lattice of full rank and a saturated plane (a line in
    one dimension)."""
    scaled = qm([[Q(rng.choice((1, 2, 3)), rng.choice((1, 2))) * (i == j) for j in range(dim)] for i in range(dim)])
    while True:
        plane = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(min(dim, 2))]
        if rank(plane) == len(plane):
            return [None, scaled, saturation_basis(plane)]


def _generators(rng, dim, lattice, count):
    """Rational combinations of the lattice rows (of the unit rows for the
    standard lattice), with zero, repeated and scaled copies, and now and
    then one moved off the span or of another length."""
    basis = lattice if lattice is not None else qm([[int(i == j) for j in range(dim)] for i in range(dim)])
    gens = []
    for _ in range(count):
        lam = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in basis]
        gens.append([sum((c * row[i] for c, row in zip(lam, basis)), Q(0)) for i in range(dim)])
    roll = rng.random()
    if gens and roll < 0.3:
        gens.append([Q(rng.randint(1, 3)) * x for x in rng.choice(gens)])
    elif roll < 0.4:
        gens.append([0] * dim)
    elif gens and roll < 0.5:
        gens.append([x + rng.randint(-1, 1) for x in gens[0]])
    elif gens and roll < 0.55:
        gens.append(gens[0][:-1] if dim > 1 else [*gens[0], 1])
    return gens


def test_cones_match_the_fraction_path():
    """Generators, dual basis and refusal of every seeded cone are the
    Fraction path's, with the lattice solved per cone or handed over."""
    rng = random.Random(2901)
    seen = {"built": 0, "dependent": 0, "off": 0, "length": 0}
    for _ in range(150):
        dim = rng.randint(1, 5)
        for lattice in _lattices(rng, dim):
            k = dim if lattice is None else len(lattice)
            gens = _generators(rng, dim, lattice, rng.randint(0, k + 1))
            old = _outcome(lambda: fraction_cone(gens, lattice, dim))
            rows = None if lattice is None else _dual_rows(lattice, dim)
            for lat in (None, rows):
                new = _outcome(lambda: cone(gens, lattice, dim, _lat=lat))
                if isinstance(old, tuple):
                    assert new == old
                else:
                    assert (new, new.gens, new._dual, new.lattice) == (old, old.gens, old._dual, old.lattice)
                    assert all(type(x) is Q for g in new.gens for x in g)
            message = old[1] if isinstance(old, tuple) else ""
            seen["built"] += not message
            seen["dependent"] += message.startswith("cone generators must be linearly independent")
            seen["off"] += message.endswith("outside the span of the reference lattice")
            seen["length"] += message == "cone generators of mixed dimension"
    assert min(seen.values()) >= 10, seen


def test_lattice_ints_match_the_elimination_path():
    """Coordinates and refusals, the first vector off the span named, as
    the one elimination of [L^T | V^T] per call gave them."""
    rng = random.Random(2902)
    for _ in range(200):
        dim = rng.randint(1, 5)
        for lattice in _lattices(rng, dim)[1:]:
            vectors = [qv(v) for v in _generators(rng, dim, lattice, rng.randint(1, 4))]
            name = rng.choice(("vector", "generator {}"))
            old = _outcome(lambda: echelon_lattice_ints(lattice, vectors, name))
            assert _outcome(lambda: _lattice_ints(lattice, vectors, name)) == old
            assert _outcome(lambda: _lattice_ints(lattice, vectors, name, _dual_rows(lattice, dim))) == old
    dependent = qm([[1, 0], [2, 0]])
    assert _outcome(lambda: _lattice_ints(dependent, [qv([1, 0])])) == ("refused", "basis rows are linearly dependent")


class _CountedRay(tuple):
    """A ray that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        _CountedRay.hashes += 1
        return super().__hash__()


def test_ray_keys_hash_each_generator_object_once():
    rng = random.Random(2903)
    for _ in range(60):
        dim = rng.randint(1, 4)
        pool = [_CountedRay(qv([rng.randint(-2, 2) for _ in range(dim)])) for _ in range(rng.randint(1, 8))]
        # equal rays as distinct objects, and objects shared between lists
        pool += [_CountedRay(g) for g in rng.sample(pool, rng.randint(0, len(pool)))]
        lists = [tuple(rng.sample(pool, rng.randint(0, len(pool)))) for _ in range(rng.randint(1, 6))]
        _CountedRay.hashes = 0
        names = _ray_keys(lists)
        assert _CountedRay.hashes == len({id(g) for gens in lists for g in gens})
        assert names == fraction_ray_keys(lists)


def _fresh(c):
    """The cone with its rows solved on its own generators."""
    return RationalCone(c.ambient_dim, c.gens, c.lattice, _dual=_dual_rows(c.gens, c.ambient_dim))


def test_chamber_rows_from_the_group_answer_like_their_own_solve():
    """A chamber translate's rows are a positive multiple of its own
    solve's on the span, its equations span the same annihilator, and
    membership, covers and the completeness certificate answer alike."""
    rng = random.Random(2904)
    for label in ("A2", "B2", "G2", "A3", "B3"):
        f = weyl_chamber_fan(build_root_system(label))
        fresh = [_fresh(c) for c in f.maximal_cones]
        k = f.maximal_cones[0].dim
        for c, g in zip(f.maximal_cones, fresh):
            (rows, d), (own, e) = c._dual, g._dual
            assert d > 0
            # at each generator the facet rows over d read its coordinates
            # (G2's group elements have denominator 3)
            for gen in c.gens:
                (w,), _ = linalg._common_ints([gen])
                assert [sum(map(mul, row, w)) * e for row in rows[:k]] == [sum(map(mul, row, w)) * d for row in own[:k]]
            assert rank(rows[k:]) == rank(own[k:]) == rank([*rows[k:], *own[k:]])
        rays = f.rays()
        for _ in range(12):
            lam = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in rays]
            p = qv([sum((x * r[i] for x, r in zip(lam, rays)), Q(0)) for i in range(f.ambient_dim)])
            p_off = qv([x + rng.randint(0, 1) for x in p])
            for q in (p, p_off):
                for strict in (False, True):
                    assert [contains(c, q, strict) for c in f.maximal_cones] == [contains(g, q, strict) for g in fresh]
        keys = f._names[1]
        assert _certified_complete(f.maximal_cones, keys, rays) is _certified_complete(fresh, keys, rays) is True
        # the first cone's rays by the other cones, each ray lying on a
        # neighbour, and in rank two the first two cones by all but the first
        for target in faces(f.maximal_cones[0])[1 : k + 1] if k > 2 else f.maximal_cones[:2]:
            cover = [c for c in f.maximal_cones if c is not f.maximal_cones[0]]
            assert covered_by(target, cover, shortcut=False) == covered_by(_fresh(target), [_fresh(c) for c in cover])
        assert all(is_smooth(c) for c in f.maximal_cones)


def test_valuation_cone_is_the_solved_one():
    for label in ("A1", "A2", "G2", "B3", "C4", "F4", "E6", "E8"):
        rs = build_root_system(label)
        vcone = valuation_cone(rs)
        old = fraction_cone([[-int(i == j) for j in range(rs.rank)] for i in range(rs.rank)], ambient_dim=rs.rank)
        assert (vcone, vcone.gens, vcone._dual) == (old, old.gens, old._dual)
        assert [f._dual for f in faces(vcone)] == [f._dual for f in faces(old)]


def test_fans_built_on_one_lattice_solve_it_once(monkeypatch):
    """A fan document and a star subdivision in a reference lattice solve
    the lattice once; `is_smooth` reads the rows off the cones."""
    calls = []
    for module in (polyhedra, jsonio):
        real = module._dual_rows
        monkeypatch.setattr(module, "_dual_rows", lambda *a, real=real: calls.append(a) or real(*a))
    lattice = [["1/2", "0", "0"], ["0", "1", "1"]]
    rays = [["1", "0", "0"], ["0", "1", "1"], ["-1", "0", "0"], ["0", "-1", "-1"]]
    doc = {"ambient_dim": 3, "lattice": lattice, "rays": rays, "maximal_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    f = jsonio.fan_from_json(doc)
    lattice_solves = [a for a in calls if len(a[0]) == 2 and a[0] == f.lattice]
    assert len(lattice_solves) == 1 and all(c._lat is f.maximal_cones[0]._lat for c in f.maximal_cones)
    calls.clear()
    assert all(is_smooth(c) for c in f.maximal_cones) and not calls
    g = polyhedra.star_subdivision(f, [1, 2, 2])
    assert not [a for a in calls if a[0] == f.lattice] and len(g.maximal_cones) == 5
    old = [fraction_cone(c.gens, f.lattice, 3) for c in g.maximal_cones]
    assert [(c.gens, c._dual) for c in g.maximal_cones] == [(c.gens, c._dual) for c in old]


def test_fourier_motzkin_steps_are_bounded():
    """A step past the bound is refused before it is taken; the last
    variable is read off its tightest bounds, as its pairs would."""
    rng = random.Random(2905)
    for _ in range(300):
        n = rng.randint(1, 3)
        ineqs = [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-3, 3)) for _ in range(rng.randint(1, 8))]
        pairs = _pairwise_last_step(n, ineqs)
        assert linalg._eliminate(n, [], ineqs) is pairs
    # the last variable's 40,000 pairs are not taken, so not refused
    last = [((rng.choice((-3, -2, -1, 1, 2, 3)),), rng.randint(-20, 20)) for _ in range(400)]
    assert linalg._eliminate(1, [], last) is _pairwise_last_step(1, last)
    ineqs = [(tuple(rng.randint(-9, 9) for _ in range(4)), rng.randint(-9, 9)) for _ in range(1100)]
    with pytest.raises(BoundExceeded, match=r"^a Fourier-Motzkin step would make \d+ rows, above the bound 20000$"):
        linalg._eliminate(4, [], ineqs)


def _pairwise_last_step(n, ineqs):
    """Fourier-Motzkin with every step taken pairwise, the last one too."""
    system = {linalg._primitive_row([*c, r]) for c, r in ineqs}
    for v in range(n):
        lowers = [r for r in system if r[v] > 0]
        uppers = [r for r in system if r[v] < 0]
        rest = [r for r in system if r[v] == 0]
        system = {*rest, *(linalg._cancel(lo, lo[v], hi, -hi[v]) for lo in lowers for hi in uppers)}
    return all(r[-1] <= 0 for r in system)


def test_root_systems_hash_their_label():
    """Equal systems hash equal, and a hash reads no root data: a system
    whose roots are an unhashable list still hashes, as its label."""
    b3 = build_root_system("B3")
    fields = {name: getattr(b3, name) for name in b3._fields}
    again = RootSystem(**fields, _simple_coords=b3._simple_coords)
    assert again == b3 and hash(again) == hash(b3) == hash("B3")
    listed = RootSystem(**{**fields, "roots": list(b3.roots)}, _simple_coords=b3._simple_coords)
    assert hash(listed) == hash(b3) and listed != b3

    class Labelled(Record):
        label: str
        data: list

        def __hash__(self):
            return hash(self.label)

    class Plain(Record):
        label: str
        data: list

    assert hash(Labelled("x", [1])) == hash("x") and Labelled("x", [1]) == Labelled("x", [1])
    with pytest.raises(TypeError):
        hash(Plain("x", [1]))


def test_fans_build_alike_under_threads():
    """Six threads build colored and chamber fans at once and ask their
    shared cones, with the serial answers."""

    def work():
        out = [jsonio.colored_fan_to_json(f) for f in blowup_chain_fans(4)]
        out += [jsonio.colored_fan_to_json(wonderful_colored_fan(build_root_system(t))) for t in ("B3", "G2")]
        for label in ("A2", "B2", "G2", "A3"):
            f = weyl_chamber_fan(build_root_system(label))
            out.append(jsonio.fan_to_json(f))
            out.append([is_smooth(c) and contains(c, c.gens[0]) for c in f.maximal_cones])
        shared_answers = [(is_smooth(c), [contains(c, g, True) for g in shared.rays()]) for c in shared.maximal_cones]
        return out, shared_answers

    shared = fan(cone(c.gens, c.lattice, c.ambient_dim) for c in weyl_chamber_fan(build_root_system("B2")).maximal_cones)
    serial = work()
    barrier = threading.Barrier(6)
    results, errors = [None] * 6, []

    def run(t):
        try:
            barrier.wait()
            results[t] = work()
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
