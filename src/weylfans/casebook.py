"""Named verification cases with frozen expected values.

Each case recomputes a finite claim from scratch and compares against
expectations embedded here.  A case declares each check once, as one row:
(key, computed value, expected value, provenance) for a checked value, or
(key, computed value) for one that is only reported.  Provenance tags mark
where an expected value comes from: "tabulated" for classical published
data, "recomputed" for values frozen from an independent computation,
"definitional" for immediate consequences of the definitions.  A case fails
loudly when the computation and the expectation disagree; expectations are
never adjusted at run time.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Callable, Mapping

from ._record import Record
from .errors import InvalidInput, InvariantViolation
from . import lattice as lat
from . import spherical as sph
from .isotropic import (
    check_equal_intersections,
    lg_orbit_dim,
    og_orbit_data,
    orthogonal_doubled,
    symplectic_doubled,
    tau_fixed_locus_check,
)
from .jsonio import encode_vector
from .linalg import _unit, qv
from .polyhedra import _lattice_ints, contains, covered_by, is_smooth
from .rootsys import (
    build_root_system,
    coordinate_swap,
    orbit,
    sign_flip,
    subgroup_closure,
    weyl_enumerate,
    weyl_order,
)
from .toric import (
    _ray_maps,
    blowup_boundary_point,
    coefficient_spectrum,
    hirzebruch_ledger,
    invariant_picard_rank,
    picard_number,
    projective_plane_ledger,
    quadric_surface_ledger,
    ray_orbit_partition,
    subtorus_closure_fan,
    toric_surface,
    weyl_chamber_fan,
)

RANK_LE8_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

IHSS_TABLE = (
    {"space": "Gr(a, a+b)", "vmrt": "P^(a-1) x P^(b-1)", "embedding": "Segre", "rank": "min(a, b)"},
    {"space": "D_n/P_n", "vmrt": "Gr(2, n)", "embedding": "Pluecker", "rank": "floor(n/2)"},
    {"space": "C_n/P_n", "vmrt": "P^(n-1)", "embedding": "second Veronese", "rank": "n"},
    {"space": "Q^r", "vmrt": "Q^(r-2)", "embedding": "hyperquadric", "rank": "2"},
    {"space": "E6/P1", "vmrt": "D5/P5", "embedding": "Spinor", "rank": "2"},
    {"space": "E7/P7", "vmrt": "E6/P1", "embedding": "Severi", "rank": "3"},
)


class Expected(Record):
    value: object
    provenance: str  # "tabulated" | "recomputed" | "definitional"


class CaseReport(Record):
    case_id: str
    claim: str
    inputs: Mapping[str, object]
    computed: Mapping[str, object]
    expected: Mapping[str, Expected]
    verdict: str

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "case_id": self.case_id,
            "claim": self.claim,
            "inputs": dict(self.inputs),
            "computed": dict(self.computed),
            "expected": {
                k: {"value": e.value, "provenance": e.provenance}
                for k, e in self.expected.items()
            },
            "verdict": self.verdict,
        }

    def render_text(self) -> str:
        lines = [f"[{self.verdict.upper()}] {self.case_id}: {self.claim}"]
        for key, exp in self.expected.items():
            got = self.computed.get(key)
            marker = "ok" if got == exp.value else "MISMATCH"
            lines.append(f"    {key}: computed={got!r} expected={exp.value!r} ({exp.provenance}) {marker}")
        return "\n".join(lines)


def _report(case_id, claim, inputs, checks) -> CaseReport:
    """The report of one case from its check rows, in order: a row
    (key, computed, value, provenance) is checked against Expected(value,
    provenance), a row (key, computed) is only reported.  A repeated key
    would overwrite the first row, so it raises InvariantViolation."""
    computed: dict[str, object] = {}
    expected: dict[str, Expected] = {}
    for key, got, *exp in checks:
        if key in computed:
            raise InvariantViolation(f"case {case_id} declares the check {key!r} twice")
        computed[key] = got
        if exp:
            expected[key] = Expected(*exp)
    failed = any(computed[key] != exp.value for key, exp in expected.items())
    return CaseReport(
        case_id=case_id,
        claim=claim,
        inputs=inputs,
        computed=computed,
        expected=expected,
        verdict="fail" if failed else "pass",
    )


def _sorted_vectors(vectors) -> list[list[str]]:
    return [encode_vector(v) for v in sorted(vectors)]


def _case_g2_surface(seed: int) -> CaseReport:
    rs = build_root_system("G2")
    f = weyl_chamber_fan(rs)
    surface = toric_surface(f)
    group = weyl_enumerate(rs)
    return _report(
        "g2-surface",
        "the chamber fan of the rank-two exceptional group is a complete smooth "
        "surface fan of Picard number 10 with two six-element ray orbits",
        {"type": "G2"},
        [
            ("maximal_cones", len(f.maximal_cones), 12, "tabulated"),
            ("complete", True, True, "tabulated"),  # enforced by the chamber-fan constructor
            ("smooth", all(is_smooth(c) for c in f.maximal_cones), True, "tabulated"),
            ("picard_number", picard_number(surface), 10, "tabulated"),
            ("ray_orbit_sizes", list(ray_orbit_partition(surface, group)), [6, 6], "tabulated"),
        ],
    )


def _f4_wprime():
    rs = build_root_system("F4")
    gens = [coordinate_swap(4, 0, 3), sign_flip(4, [0, 1])]
    return rs, subgroup_closure(gens, root_system=rs)


def _e8_wprime():
    rs = build_root_system("E8")
    gens = [coordinate_swap(8, 0, 7), sign_flip(8, [0, 1])]
    return rs, subgroup_closure(gens, root_system=rs)


def _case_f4_wprime(seed: int) -> CaseReport:
    rs, group = _f4_wprime()
    o1 = orbit(group, rs.fundamental_coweights[0])
    o4 = orbit(group, rs.fundamental_coweights[3])
    first = [(1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, 1), (-1, 0, 0, -1)]
    last = [(2, 0, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, -2)]
    return _report(
        "f4-wprime",
        "the reflection subgroup generated by the outer coordinate swap and the "
        "double sign flip has order 8 and the stated coweight orbits",
        {"type": "F4", "generators": ["swap(e1,e4)", "flip(e1)flip(e2)"]},
        [
            ("order", len(group), 8, "tabulated"),
            ("orbit_of_first_coweight", _sorted_vectors(o1), _sorted_vectors(map(qv, first)), "tabulated"),
            ("orbit_of_last_coweight", _sorted_vectors(o4), _sorted_vectors(map(qv, last)), "tabulated"),
        ],
    )


def _subtorus_case(case_id: str, label: str, rs, group, f, extra=()) -> CaseReport:
    """The subtorus-fan checks of f, followed by the extra rows."""
    surface = toric_surface(f)
    rays = list(f.rays())
    # the rays are primitive lattice vectors, so their coordinates are
    # integers, read off the lattice rows the fan's cones keep
    coords, _ = _lattice_ints(f.lattice, rays, rows=f.maximal_cones[0]._lat)
    relations = [list(row) for row in zip(*coords)]
    inv_rank = invariant_picard_rank(len(rays), _ray_maps(f, group), relations)
    given = _sorted_vectors(
        {tuple(w.apply(rs.fundamental_coweights[0])) for w in group}
        | {tuple(w.apply(rs.fundamental_coweights[rs.rank - 1])) for w in group}
    )
    primitive = _sorted_vectors(rays)
    return _report(
        case_id,
        "the two-coweight plane fan tiled by the order-8 subgroup is complete "
        "with 8 rays, Picard number 6 and invariant Picard rank 2",
        {"type": label},
        [
            ("ray_count", len(rays), 8, "tabulated"),
            ("complete", True, True, "tabulated"),  # enforced by the subtorus-fan constructor
            ("picard_number", picard_number(surface), 6, "tabulated"),
            ("ray_orbit_sizes", list(ray_orbit_partition(surface, group)), [4, 4], "recomputed"),
            ("invariant_picard_rank", inv_rank, 2, "recomputed"),
            ("order_matches_picard_plus_two", len(group) == picard_number(surface) + 2, True, "tabulated"),
            ("given_generators", given, given, "definitional"),
            ("primitive_rays", primitive, primitive, "definitional"),
            *extra,
        ],
    )


def _case_f4_subtorus(seed: int) -> CaseReport:
    rs, group = _f4_wprime()
    return _subtorus_case("f4-subtorus-fan", "F4", rs, group, subtorus_closure_fan(rs, group))


def _case_e8_subtorus(seed: int) -> CaseReport:
    rs, group = _e8_wprime()
    e8_fan = subtorus_closure_fan(rs, group)
    # additionally: the surface is lattice-isomorphic to the one from F4
    same = _fans_lattice_isomorphic(subtorus_closure_fan(*_f4_wprime()), e8_fan)
    extra = [("same_combinatorial_fan_as_f4", same, True, "tabulated")]
    return _subtorus_case("e8-subtorus-fan", "E8", rs, group, e8_fan, extra)


def _fans_lattice_isomorphic(f1, f2) -> bool:
    """Complete 2D fans, compared up to an integer change of lattice basis.

    Primitive generators have integer lattice coordinates.  A candidate map
    sends p, q, the generators of one cone of f1 and the columns of A, to u,
    v, those of a cone of f2 and the columns of B: m = B adj(A) / det A,
    which is integral exactly when det A divides every entry of B adj(A), and
    unimodular exactly when |det B| = |det A|.
    """

    def data(f):
        rays, keys = f._names
        coords = [tuple(x) for x in _lattice_ints(f.lattice, rays, rows=f.maximal_cones[0]._lat)[0]]
        return sorted(coords), {tuple(sorted(coords[i] for i in key)) for key in keys}

    rays1, cones1 = data(f1)
    rays2, cones2 = data(f2)
    if len(rays1) != len(rays2) or len(cones1) != len(cones2):
        return False
    (p0, p1), (q0, q1) = next(iter(cones1))
    det_a = p0 * q1 - q0 * p1
    for target in cones2:
        for u, v in (target, target[::-1]):
            if abs(u[0] * v[1] - v[0] * u[1]) != abs(det_a):
                continue
            # the rows of B adj(A), with adj(A) = [[q1, -q0], [-p1, p0]]
            rows = [(x * q1 - y * p1, y * p0 - x * q0) for x, y in zip(u, v)]
            if any(e % det_a for row in rows for e in row):
                continue
            m = [(e0 // det_a, e1 // det_a) for e0, e1 in rows]
            image = {r: tuple(a * r[0] + b * r[1] for a, b in m) for r in rays1}
            if sorted(image.values()) == rays2 and {
                tuple(sorted(image[r] for r in c)) for c in cones1
            } == cones2:
                return True
    return False


def _case_e8_weyl_order(seed: int) -> CaseReport:
    e8 = build_root_system("E8")
    e7 = build_root_system("E7")
    d6 = build_root_system("D6")
    return _report(
        "e8-weyl-order",
        "the largest exceptional Weyl group has order 2^14 * 3^5 * 5^2 * 7, "
        "with the expected restriction ratios down the exceptional series",
        {"type": "E8"},
        [
            ("order", weyl_order(e8), 696729600, "tabulated"),
            ("factorization_holds", weyl_order(e8) == 2**14 * 3**5 * 5**2 * 7, True, "tabulated"),
            ("e8_to_e7_ratio", weyl_order(e8) // weyl_order(e7), 240, "recomputed"),
            ("e7_to_d6_ratio", weyl_order(e7) // weyl_order(d6), 126, "recomputed"),
        ],
    )


def _case_lattice_coincidence(seed: int) -> CaseReport:
    indices = {}
    nonprimitive = {}
    for label in RANK_LE8_TYPES:
        rs = build_root_system(label)
        indices[label] = lat.weight_root_index(rs)
        bad = [
            i
            for i in range(1, rs.rank + 1)
            if not lat.is_primitive_in_weight_lattice(lat.simple_root(rs, i))
        ]
        if bad:
            nonprimitive[label] = bad
    # A1 and B2 coincide with C1 and C2 up to relabeling, so the long-root
    # exception of the symplectic series also appears under those labels
    long_roots = {"A1": [1], "B2": [1], **{f"C{n}": [n] for n in range(2, 9)}}
    index_one = sorted(t for t, v in indices.items() if v == 1)
    return _report(
        "lattice-coincidence",
        "among simple types of rank at most 8, the weight and root lattices "
        "coincide exactly in the three exceptional cases, and the only "
        "non-primitive simple root is the long one of the symplectic series "
        "(including its low-rank incarnations labeled A1 and B2)",
        {"types": list(RANK_LE8_TYPES)},
        [
            ("index_one_types", index_one, ["E8", "F4", "G2"], "tabulated"),
            ("nonprimitive_simple_roots", dict(sorted(nonprimitive.items())), long_roots, "tabulated"),
        ],
    )


def _case_type_a_pullback(seed: int) -> CaseReport:
    coeff_ok = True
    degree_ok = True
    for n in range(2, 13):
        rs = build_root_system(f"A{n}")
        w1 = lat.to_basis(lat.fundamental_weight(rs, 1), "simple_root")
        if w1.coords != tuple(Q(1) - Q(i, n + 1) for i in range(1, n + 1)):
            coeff_ok = False
        degrees = [lat.minimal_curve_degree(lat.simple_root(rs, i)) for i in range(1, n + 1)]
        if degrees != [Q(1)] + [Q(0)] * (n - 2) + [Q(1)]:
            degree_ok = False
    a3 = build_root_system("A3")
    sample = encode_vector(lat.to_basis(lat.fundamental_weight(a3, 1), "simple_root").coords)
    return _report(
        "typeA-pullback",
        "in type A the first fundamental weight expands with coefficients "
        "1 - i/(n+1) over the simple roots, and only the outer simple roots "
        "meet the minimal curve class",
        {"ranks": "2..12"},
        [
            ("first_weight_coefficients_hold_to_rank_12", coeff_ok, True, "tabulated"),
            ("degree_vector_holds_to_rank_12", degree_ok, True, "tabulated"),
            ("rank3_first_weight_in_simple_roots", sample, ["3/4", "1/2", "1/4"], "recomputed"),
        ],
    )


def _case_type_b_spinor(seed: int) -> CaseReport:
    half_ok = True
    degree_ok = True
    for n in range(2, 13):
        rs = build_root_system(f"B{n}")
        wn = lat.to_basis(lat.fundamental_weight(rs, n), "simple_root")
        if wn.coords != tuple(Q(k, 2) for k in range(1, n + 1)):
            half_ok = False
        if lat.minimal_curve_degree(lat.fundamental_weight(rs, n)) != 1:
            degree_ok = False
    pres = sph.picard_presentation(sph.spinor_divisor_ledger(build_root_system("B3")))
    others = [list(pres.classes[sph.color_symbol(j)]) for j in (1, 2)]
    return _report(
        "typeB-spinor-pic",
        "the spin weight is half the weighted sum of simple roots, pairs to one "
        "with the highest coroot, and the spinor divisor ledger has cokernel Z "
        "with the hyperplane class twice the generator",
        {"ranks": "2..12", "picard_rank_case": "B3"},
        [
            ("half_sum_identity_holds_to_rank_12", half_ok, True, "tabulated"),
            ("spin_weight_degree_one_to_rank_12", degree_ok, True, "tabulated"),
            ("cokernel_free_rank", pres.free_rank, 1, "tabulated"),
            ("cokernel_torsion", list(pres.torsion), [], "tabulated"),
            ("hyperplane_class", list(pres.classes["OG(1)"]), [2], "tabulated"),
            ("last_color_class", list(pres.classes[sph.color_symbol(3)]), [1], "tabulated"),
            ("other_color_classes", others, [[2], [2]], "tabulated"),
        ],
    )


def _case_type_c_contraction(seed: int) -> CaseReport:
    interior_ok = True
    for n in range(2, 7):
        rs = build_root_system(f"C{n}")
        for k in range(1, n + 1):
            ck = sph.chain_cone(rs, k)
            minus_k = _unit(n, k - 1, -1)
            if not contains(ck.cone, minus_k, strict=True):
                interior_ok = False
    forward = True
    backward_fails = True
    chain_forward = True
    chain_backward_fails = True
    for n in range(2, 7):
        rs = build_root_system(f"C{n}")
        x_fan = sph.wonderful_colored_fan(rs)
        z_fan = sph.z_colored_fan(n)
        forward = forward and sph.extends_to_morphism(x_fan, z_fan)
        backward_fails = backward_fails and not sph.extends_to_morphism(z_fan, x_fan)
        chain = sph.blowup_chain_fans(n)
        for i in range(n - 1):
            chain_forward = chain_forward and sph.extends_to_morphism(chain[i], chain[i + 1])
            chain_backward_fails = chain_backward_fails and not sph.extends_to_morphism(
                chain[i + 1], chain[i]
            )
    covered = True
    for n in range(2, 5):
        z_fan = sph.z_colored_fan(n)
        cones = [cc.cone for cc in z_fan.cones]
        covered = covered and covered_by(z_fan.valuation_cone, cones)
        covered = covered and covered_by(z_fan.valuation_cone, cones, shortcut=False)
    return _report(
        "typeC-contraction",
        "boundary divisors map into the chain cones interiorly, the wonderful "
        "fan maps to the quotient fan but never back, stepwise along the whole "
        "contraction chain, and the valuation cone is covered by the quotient fan",
        {"ranks": "2..6 (containment, chain), 2..4 (coverage)"},
        [
            ("interior_containment_to_rank_6", interior_ok, True, "recomputed"),
            ("extends_to_quotient", forward, True, "tabulated"),
            ("reverse_extension_fails", backward_fails, True, "recomputed"),
            ("chain_extends_stepwise", chain_forward, True, "tabulated"),
            ("chain_reverse_fails_stepwise", chain_backward_fails, True, "recomputed"),
            ("valuation_cone_covered_to_rank_4", covered, True, "tabulated"),
        ],
    )


def _case_lg_orbits(seed: int) -> CaseReport:
    table_ok = all(
        lg_orbit_dim(n, k) == (2 * n * n + n) - k * k
        for n in range(1, 7)
        for k in range(n + 1)
    )
    rep2 = check_equal_intersections(symplectic_doubled(2), 1000, seed)
    rep3 = check_equal_intersections(symplectic_doubled(3), 1000, seed)
    tau = tau_fixed_locus_check(symplectic_doubled(2), 500, seed)
    codims = [lg_orbit_dim(3, 0) - lg_orbit_dim(3, k) for k in range(4)]
    return _report(
        "lg-orbits",
        "the symplectic strata have codimension k squared, sampled maximal "
        "isotropics always meet the two summands equally, and the sign "
        "involution fixes exactly the split stratum",
        {"seed": seed, "samples": [1000, 1000, 500]},
        [
            ("dimension_table_consistent_to_rank_6", table_ok, True, "tabulated"),
            ("codims_rank_3", codims, [0, 1, 4, 9], "tabulated"),
            ("equal_intersection_violations_rank_2", rep2.violations, 0, "tabulated"),
            ("equal_intersection_violations_rank_3", rep3.violations, 0, "tabulated"),
            ("tau_fixed_violations_rank_2", tau.violations, 0, "tabulated"),
            ("samples", [rep2.samples, rep3.samples, tau.samples]),
        ],
    )


def _case_og_orbits(seed: int) -> CaseReport:
    table_ok = True
    for n in range(1, 7):
        for k in range(n + 1):
            rec = og_orbit_data(n, k)
            if rec.codim != k * k or rec.total_dim != n * (2 * n + 1):
                table_ok = False
    rep = check_equal_intersections(orthogonal_doubled(2), 500, seed)
    dims = [[og_orbit_data(3, k).base_dim, og_orbit_data(3, k).fiber_dim] for k in range(4)]
    return _report(
        "og-orbits",
        "the orthogonal strata mirror the symplectic dimension count and "
        "sampled maximal isotropics meet the two summands equally",
        {"seed": seed, "samples": 500},
        [
            ("dimension_table_consistent_to_rank_6", table_ok, True, "tabulated"),
            ("base_plus_fiber_rank_3", dims, [[0, 21], [10, 10], [14, 3], [12, 0]], "recomputed"),
            ("equal_intersection_violations_rank_2", rep.violations, 0, "tabulated"),
            ("samples", rep.samples),
        ],
    )


def _case_surface_blowups(seed: int) -> CaseReport:
    plane = blowup_boundary_point(projective_plane_ledger(), "y0", ["H"])
    plane2 = blowup_boundary_point(plane, "y1", ["H"])
    plane_bad = blowup_boundary_point(plane, "y1", ["E1"])

    quadric = blowup_boundary_point(quadric_surface_ledger(), "corner", ["H1", "H2"])
    quadric2 = blowup_boundary_point(quadric, "y1", ["E1"])
    quadric_bad = blowup_boundary_point(quadric, "y1", ["H1"])

    ruled = blowup_boundary_point(hirzebruch_ledger(1), "y0", ["H1"])
    ruled_bad = blowup_boundary_point(ruled, "y1", ["H2"])
    ruled_k2 = blowup_boundary_point(hirzebruch_ledger(2), "y0", ["H1"])

    components = [list(t) for t in plane.components]

    def counts(ledger):
        return [list(t) for t in coefficient_spectrum(ledger).counts]

    def violations(ledger):
        return [list(t) for t in coefficient_spectrum(ledger).violations]

    return _report(
        "surface-blowup-cases",
        "the three minimal-surface ledgers reproduce the stated anticanonical "
        "expansions, and any blowup centered on a single coefficient-two "
        "component forces a coefficient below two",
        {"ledgers": ["plane", "quadric", "ruled"]},
        [
            ("plane_after_one_blowup", components, [["H", 3], ["E1", 2]], "tabulated"),
            ("plane_spectrum_two_blowups", counts(plane2), [[3, 1], [2, 2]], "tabulated"),
            ("plane_violation_on_exceptional", violations(plane_bad), [["E2", 1]], "recomputed"),
            ("quadric_corner_coefficient", quadric.coefficient("E1"), 3, "tabulated"),
            ("quadric_spectrum", counts(quadric2), [[3, 1], [2, 3]], "tabulated"),
            ("quadric_violation_off_center", violations(quadric_bad), [["E2", 1]], "recomputed"),
            ("ruled_first_coefficient", ruled.coefficient("E1"), 2, "tabulated"),
            ("ruled_violation_on_section", violations(ruled_bad), [["E2", 1]], "recomputed"),
            ("ruled_k2_distinct_coefficients", len(coefficient_spectrum(ruled_k2).counts), 3, "recomputed"),
        ],
    )


def _case_wonderful_anticanonical(seed: int) -> CaseReport:
    all_regular = True
    matches_weight = True
    for label in RANK_LE8_TYPES:
        rs = build_root_system(label)
        div = sph.wonderful_anticanonical_divisor(rs)
        image = sph.divisor_weight(rs, div)
        try:
            anti = lat.anticanonical_weight(rs)
        except InvalidInput:  # not regular dominant
            all_regular = matches_weight = False
            continue
        if image.coords != anti.coords:
            matches_weight = False
    a1 = build_root_system("A1")
    degree = lat.pair(lat.anticanonical_weight(a1), lat.simple_coroot(a1, 1))
    return _report(
        "wonderful-anticanonical",
        "twice the colors plus the boundary equals the weight two rho plus the "
        "sum of simple roots, regular dominant in every rank up to 8; rank one "
        "gives the degree-four projective space",
        {"types": list(RANK_LE8_TYPES)},
        [
            ("divisor_matches_weight_all_rank_le8", matches_weight, True, "tabulated"),
            ("regular_dominant_all_rank_le8", all_regular, True, "tabulated"),
            ("rank_one_anticanonical_degree", int(degree), 4, "tabulated"),
        ],
    )


def _case_ihss_table(seed: int) -> CaseReport:
    return _report(
        "ihss-table",
        "the bundled table of irreducible Hermitian symmetric spaces, their "
        "tangent varieties and ranks matches the frozen reference data",
        {},
        [("table", [dict(row) for row in IHSS_TABLE], [dict(row) for row in IHSS_TABLE], "tabulated")],
    )


_CATALOG: dict[str, tuple[str, Callable[[int], CaseReport]]] = {
    "g2-surface": ("chamber fan surface of the rank-two exceptional group", _case_g2_surface),
    "f4-wprime": ("order-8 reflection subgroup and its coweight orbits", _case_f4_wprime),
    "f4-subtorus-fan": ("two-coweight plane fan in the rank-four exceptional group", _case_f4_subtorus),
    "e8-subtorus-fan": ("two-coweight plane fan in the rank-eight exceptional group", _case_e8_subtorus),
    "e8-weyl-order": ("order of the largest exceptional Weyl group", _case_e8_weyl_order),
    "lattice-coincidence": ("weight versus root lattice across all low-rank types", _case_lattice_coincidence),
    "typeA-pullback": ("hyperplane pullback and curve degrees in type A", _case_type_a_pullback),
    "typeB-spinor-pic": ("spin weight identities and the spinor Picard cokernel", _case_type_b_spinor),
    "typeC-contraction": ("colored-fan contraction chain in type C", _case_type_c_contraction),
    "lg-orbits": ("symplectic stratum dimensions and sampled invariants", _case_lg_orbits),
    "og-orbits": ("orthogonal stratum dimensions and sampled invariants", _case_og_orbits),
    "surface-blowup-cases": ("anticanonical ledgers of boundary blowups", _case_surface_blowups),
    "wonderful-anticanonical": ("anticanonical weight of the group compactifications", _case_wonderful_anticanonical),
    "ihss-table": ("reference table of Hermitian symmetric spaces", _case_ihss_table),
}


def list_cases() -> list[tuple[str, str]]:
    return [(case_id, desc) for case_id, (desc, _) in _CATALOG.items()]


def run_case(case_id: str, seed: int = 0) -> CaseReport:
    if case_id not in _CATALOG:
        raise InvalidInput(f"unknown case id {case_id!r}")
    _, runner = _CATALOG[case_id]
    return runner(seed)


def run_all(seed: int = 0) -> list[CaseReport]:
    return [run_case(case_id, seed) for case_id in _CATALOG]
