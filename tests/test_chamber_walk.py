"""Chamber fans from the walk on chambers, smoothness by one determinant and
walls named by sorted tuples, against the old paths kept in `old_fans` and
against closed forms that read no fan.

The closed forms: the Weyl group of a Dynkin diagram is the product of its
components' groups, each known by its type (Bourbaki, Lie Groups and Lie
Algebras, ch. VI, planches), and the rays of the chamber fan are the
W-orbits of the fundamental coweights, the orbit of omega_i^vee of size
|W| / |W_(i)|, where W_(i), its stabilizer, is the parabolic subgroup of
the diagram without node i (Humphreys, Reflection Groups and Coxeter
Groups, 1.12).  Types are read off the Cartan matrix alone.
"""

import random
from fractions import Fraction as Q
from math import factorial

import old_fans
import pytest

from weylfans import jsonio
from weylfans.linalg import qm
from weylfans.linalg import rank as rank_of
from weylfans.polyhedra import RationalCone, _walls, cone, fan, is_complete, is_smooth
from weylfans.rootsys import build_root_system, weyl_order
from weylfans.toric import MAX_CHAMBERS, weyl_chamber_fan

SMALL = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "F4", "G2")
# every type whose group is at most MAX_CHAMBERS but the four largest, which
# take 4-5 s each and run as whole processes through this module's __main__
WALKED = SMALL + ("A6", "B5", "C5", "D6")
LARGEST = ("A7", "B6", "C6", "E6")


def _components(cartan, nodes):
    """The connected components of the Dynkin diagram on the nodes."""
    left, parts = set(nodes), []
    while left:
        part, frontier = set(), [left.pop()]
        while frontier:
            i = frontier.pop()
            part.add(i)
            near = {j for j in left if cartan[i][j]}
            left -= near
            frontier += near
        parts.append(sorted(part))
    return parts


def _irreducible_order(cartan, nodes):
    """|W| of a connected finite-type diagram, by its type."""
    m = len(nodes)
    bond = {(i, j): cartan[i][j] * cartan[j][i] for i in nodes for j in nodes if i != j and cartan[i][j]}
    degree = {i: sum(1 for j in nodes if (i, j) in bond) for i in nodes}
    if m == 1:
        return 2
    if 3 in bond.values():
        return 12  # G2
    if 2 in bond.values():
        i, j = next(p for p, b in bond.items() if b == 2)
        # F4 has its double bond inside the chain, B_m and C_m at its end
        return 1152 if degree[i] == degree[j] == 2 else 2**m * factorial(m)
    centre = [i for i in nodes if degree[i] == 3]
    if not centre:
        return factorial(m + 1)  # A_m
    arms = []
    for start in (j for j in nodes if (centre[0], j) in bond):
        length, previous, node = 1, centre[0], start
        while degree[node] == 2:
            previous, node = node, next(j for j in nodes if (node, j) in bond and j != previous)
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return 2 ** (m - 1) * factorial(m)  # D_m
    return {(1, 2, 2): 51_840, (1, 2, 3): 2_903_040, (1, 2, 4): 696_729_600}[tuple(arms)]


def _order(cartan, nodes):
    out = 1
    for part in _components(cartan, nodes):
        out *= _irreducible_order(cartan, part)
    return out


def _closed_forms(label):
    """(|W|, the number of rays) of the chamber fan, from the Cartan matrix."""
    cartan = [[int(x) for x in row] for row in build_root_system(label).cartan]
    n = len(cartan)
    order = _order(cartan, range(n))
    return order, sum(order // _order(cartan, [j for j in range(n) if j != i]) for i in range(n))


def test_closed_forms_read_the_classification():
    """The closed forms against the tabulated orders and two ray counts."""
    assert [_closed_forms(t)[0] for t in ("A4", "B5", "C3", "D6", "E6", "E7", "E8", "F4", "G2")] == [
        120, 3840, 48, 23040, 51840, 2903040, 696729600, 1152, 12,
    ]
    assert _closed_forms("B5")[1] == 242 and _closed_forms("E6")[1] == 1278
    assert all(_closed_forms(t)[0] == weyl_order(build_root_system(t)) for t in WALKED + LARGEST + ("E7", "E8"))
    assert max(weyl_order(build_root_system(t)) for t in WALKED + LARGEST) == MAX_CHAMBERS


@pytest.mark.parametrize("label", WALKED)
def test_chamber_fans_match_closed_forms(label):
    """|W| maximal cones on the counted rays, complete, every chamber smooth,
    each built under the default bound."""
    order, rays = _closed_forms(label)
    f = weyl_chamber_fan(build_root_system(label))
    assert (len(f.maximal_cones), len(f.rays())) == (order, rays)
    assert is_complete(f)
    assert all(is_smooth(c) for c in f.maximal_cones)


@pytest.mark.parametrize("label", SMALL)
def test_chamber_fans_match_the_group_path(label):
    """Byte-identical fan documents; each chamber's rows read its
    generators' coordinates over d and vanish with its span rows on them."""
    rs = build_root_system(label)
    new, old = weyl_chamber_fan(rs), old_fans.weyl_chamber_fan(rs)
    assert jsonio.dumps(jsonio.fan_to_json(new)) == jsonio.dumps(jsonio.fan_to_json(old))
    assert new == old and new.maximal_cones == old.maximal_cones
    k = rs.rank
    for c in new.maximal_cones:
        rows, d = c._dual
        assert d > 0 and len(rows) == rs.ambient_dim
        for j, g in enumerate(c.gens):
            assert [sum(Q(x) * y for x, y in zip(row, g)) for row in rows] == [d * (i == j) for i in range(k)] + [0] * (
                rs.ambient_dim - k
            )


def _unimodular(dim, rng):
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim):
        i, j = rng.sample(range(dim), 2)
        m[i] = [x + rng.randint(-2, 2) * y for x, y in zip(m[i], m[j])]
    return m


def _random_cones(rng):
    """(square, on a reference lattice, cone): primitive cones from
    unimodular and from random coefficient rows, on the standard lattice and
    on rational lattices of lower and full rank; cones built directly on a
    non-primitive generator or on one off the lattice."""
    while True:
        dim = rng.randint(2, 5)
        rank = dim if rng.random() < 0.5 else rng.randint(2, dim)
        lattice = None
        if rng.random() < 0.5:
            lattice = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)] for _ in range(rank)]
            if rank_of(lattice) < rank:
                continue
        else:
            rank = dim
        k = rank if rng.random() < 0.5 else rng.randint(1, rank - 1)
        if rng.random() < 0.5:
            coeffs = rng.sample(_unimodular(rank, rng), k)
        else:
            coeffs = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(k)]
        if rank_of(coeffs) < k:
            continue
        basis = lattice if lattice is not None else [[int(i == j) for j in range(dim)] for i in range(dim)]
        gens = [[sum(c * b[t] for c, b in zip(row, basis)) for t in range(dim)] for row in coeffs]
        if rng.random() < 0.15:
            # built directly: a multiple of a generator, or half of one
            factor = rng.choice((2, 3, Q(1, 2)))
            gens[0] = [factor * x for x in gens[0]]
            c = RationalCone(dim, qm(gens), None if lattice is None else qm(lattice))
        else:
            c = cone(gens, lattice=lattice, ambient_dim=dim)
        yield k == rank, lattice is not None, c


def test_determinant_path_matches_smith_form():
    """Square and non-square cones, on the standard lattice and others,
    smooth and not: the one-determinant answer is the Smith form's."""
    rng = random.Random(3107)
    seen = {}
    cones = _random_cones(rng)
    for _ in range(600):
        square, other, c = next(cones)
        answer = is_smooth(c)
        assert answer is old_fans.is_smooth(c)
        seen.setdefault((square, other), set()).add(answer)
    assert seen == {(s, o): {True, False} for s in (True, False) for o in (True, False)}


def _fans_and_keys():
    for label in ("A1", "A2", "B2", "G2", "A3", "B3"):
        f = weyl_chamber_fan(build_root_system(label))
        cones, keys = list(f.maximal_cones), list(f._names[1])
        yield cones, keys
        yield cones[1:], keys[1:]  # a wall left open
        yield cones + cones[:1], keys + keys[:1]  # walls of three sides
        yield cones + cones[:2], keys + keys[:2]  # and of four
        yield cones[:-1] + cones[:1], keys[:-1] + keys[:1]  # as many sides, some three, some one
        yield cones, [key[::-1] for key in keys]  # unsorted keys
    p2 = fan([cone([[1, 0], [0, 1]]), cone([[0, 1], [-1, -1]]), cone([[-1, -1], [1, 0]])])
    yield list(p2.maximal_cones), list(p2._names[1])
    quadrant = cone([[1, 0], [0, 1]])
    yield [quadrant, cone([[1, 0]])], [(0, 1), (0,)]  # a cone below the rank
    zero = cone([], ambient_dim=0)
    yield [zero, zero], [(), ()]


def test_walls_match_frozenset_walls():
    """The same verdict and, when there is one, the same sides on each wall."""
    for cones, keys in _fans_and_keys():
        new, old = _walls(cones, keys), old_fans.walls(cones, keys)
        assert (new is None) is (old is None)
        if new is not None:
            assert sorted(map(sorted, new)) == sorted(map(sorted, old.values()))


if __name__ == "__main__":
    # The closed-form check on the largest types, which Tier-1 leaves out,
    # one type per whole process: PYTHONPATH=src python tests/test_chamber_walk.py E6
    import resource
    import sys
    import time

    for label in sys.argv[1:] or LARGEST:
        start = time.perf_counter()
        test_chamber_fans_match_closed_forms(label)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{label}: closed forms hold, {time.perf_counter() - start:.2f} s, peak RSS {peak:.0f} MB")
