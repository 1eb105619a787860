import hashlib
import random

import pytest
from old_linalg import _old_inverse, mat_mul, mat_vec, transpose, vadd, vscale

from weylfans import casebook, cli, jsonio
from weylfans.casebook import (
    Expected,
    _e8_wprime,
    _f4_wprime,
    _fans_lattice_isomorphic,
    _report,
    list_cases,
    run_all,
    run_case,
)
from weylfans.errors import InvalidInput, InvariantViolation
from weylfans.linalg import det, qm
from weylfans.polyhedra import cone, fan, star_subdivision
from weylfans.rootsys import build_root_system
from weylfans.toric import subtorus_closure_fan, weyl_chamber_fan

EXPECTED_IDS = [
    "g2-surface",
    "f4-wprime",
    "f4-subtorus-fan",
    "e8-subtorus-fan",
    "e8-weyl-order",
    "lattice-coincidence",
    "typeA-pullback",
    "typeB-spinor-pic",
    "typeC-contraction",
    "lg-orbits",
    "og-orbits",
    "surface-blowup-cases",
    "wonderful-anticanonical",
    "ihss-table",
]


def test_catalog_listing():
    ids = [cid for cid, _ in list_cases()]
    assert ids == EXPECTED_IDS
    assert all(desc for _, desc in list_cases())


def test_unknown_case_rejected():
    with pytest.raises(InvalidInput):
        run_case("no-such-case")


@pytest.mark.parametrize("case_id", EXPECTED_IDS)
def test_case_passes(case_id):
    report = run_case(case_id, seed=0)
    assert report.passed(), report.render_text()
    doc = report.to_json()
    assert doc["case_id"] == case_id
    assert doc["verdict"] == "pass"
    assert set(doc["expected"]) <= set(doc["computed"])
    for entry in doc["expected"].values():
        assert entry["provenance"] in ("tabulated", "recomputed", "definitional")


def test_reports_are_deterministic():
    # two runs with the same seed give byte-identical reports, including the
    # seeded sampling case
    for case_id in ("ihss-table", "f4-wprime", "lg-orbits"):
        first = jsonio.dumps(run_case(case_id, seed=0).to_json())
        second = jsonio.dumps(run_case(case_id, seed=0).to_json())
        assert first == second


def test_report_text_rendering():
    text = run_case("e8-weyl-order").render_text()
    assert text.startswith("[PASS] e8-weyl-order")
    assert "696729600" in text


# sha256 of what `weylfans verify --all` prints at seed 0, frozen from the
# casebook as it stood when each case named every key in two parallel dicts
VERIFY_ALL_SHA256 = {
    "json": "6a194aa5807d8a2b04f3f329a359364b37089d9fce581987ea0fc547e40f8ef4",
    "text": "205849948b316f735624ef8110b93d82119a09ad1bfcf4ab49dc9149cdbbf8f8",
}


def test_verify_all_prints_the_pinned_bytes(monkeypatch, capsys):
    """One run of the whole casebook (about 2 s), printed by the command in
    both formats: every key, value, provenance and verdict, and their order,
    are byte for byte the pinned ones."""
    reports = run_all(0)
    monkeypatch.setattr(casebook, "run_all", lambda seed=0: reports)
    for fmt, flags in (("json", ["--json"]), ("text", [])):
        assert cli.main(["verify", "--all", *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_ALL_SHA256[fmt], fmt


def test_report_builds_both_maps_from_one_row_per_check():
    checks = [("order", 8, 8, "tabulated"), ("samples", [500]), ("rays", [1, 2], [1, 2], "definitional")]
    report = _report("case", "claim", {"seed": 0}, checks)
    assert report.passed()
    assert list(report.computed.items()) == [("order", 8), ("samples", [500]), ("rays", [1, 2])]
    # the reported-only row adds nothing to the expectations
    assert list(report.expected.items()) == [
        ("order", Expected(8, "tabulated")),
        ("rays", Expected([1, 2], "definitional")),
    ]
    assert "samples" not in report.render_text()
    assert _report("case", "claim", {}, [("order", 7, 8, "tabulated"), ("samples", 1)]).verdict == "fail"


def test_report_refuses_a_repeated_key():
    for checks in (
        [("order", 8, 8, "tabulated"), ("order", 8, 8, "tabulated")],
        [("order", 8, 8, "tabulated"), ("order", 7)],
        [("samples", 1), ("samples", 1)],
    ):
        with pytest.raises(InvariantViolation, match="case demo declares the check '(order|samples)' twice"):
            _report("demo", "claim", {}, checks)


def _old_fans_lattice_isomorphic(f1, f2):
    """The Fraction comparison the integer one replaced, kept as the oracle:
    m = B A^-1 through a Fraction inverse and product."""

    def data(f):
        base = f.maximal_cones[0]
        rays = sorted({tuple(base.lattice_coords(g)) for c in f.maximal_cones for g in c.gens})
        cones = {
            tuple(sorted(tuple(base.lattice_coords(g)) for g in c.gens))
            for c in f.maximal_cones
        }
        return rays, cones

    rays1, cones1 = data(f1)
    rays2, cones2 = data(f2)
    if len(rays1) != len(rays2) or len(cones1) != len(cones2):
        return False
    pair1 = next(iter(cones1))
    a = transpose(qm(pair1))
    for target in cones2:
        for ordered in (target, target[::-1]):
            b = transpose(qm(ordered))
            try:
                m = mat_mul(b, _old_inverse(a))
            except InvalidInput:
                continue
            if any(x.denominator != 1 for row in m for x in row):
                continue
            if abs(det(m)) != 1:
                continue
            image_rays = sorted(tuple(mat_vec(m, r)) for r in rays1)
            if image_rays != rays2:
                continue
            image_cones = {
                tuple(sorted(tuple(mat_vec(m, r)) for r in c)) for c in cones1
            }
            if image_cones == cones2:
                return True
    return False


def test_fans_lattice_isomorphic_matches_fraction_version():
    """Every ordered pair of the A2/B2/G2 chamber fans, the F4/E8 subtorus
    fans and two seeded star subdivisions of each, and of the fan of P1 x P1
    and its image under the integer map (x, y) -> (x + y, x - y), which sends
    rays to primitive rays but has determinant -2."""
    square = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    diamond = [(1, 1), (1, -1), (-1, -1), (-1, 1)]
    fans = [fan(cone([rays[i], rays[i - 1]]) for i in range(4)) for rays in (square, diamond)]
    rng = random.Random(2020)
    for f in [
        *(weyl_chamber_fan(build_root_system(label)) for label in ("A2", "B2", "G2")),
        subtorus_closure_fan(*_f4_wprime()),
        subtorus_closure_fan(*_e8_wprime()),
    ]:
        fans.append(f)
        for _ in range(2):
            g1, g2 = rng.choice(f.maximal_cones).gens
            f = star_subdivision(f, vadd(vscale(rng.randint(1, 3), g1), vscale(rng.randint(1, 3), g2)))
            fans.append(f)
    verdicts = {True: 0, False: 0}
    same_counts_apart = 0
    for f1 in fans:
        for f2 in fans:
            same = _fans_lattice_isomorphic(f1, f2)
            assert same == _old_fans_lattice_isomorphic(f1, f2)
            verdicts[same] += 1
            counts = [(len(f.rays()), len(f.maximal_cones)) for f in (f1, f2)]
            same_counts_apart += not same and counts[0] == counts[1]
    # isomorphic pairs beyond each fan with itself (F4 and E8 at least)
    assert len(fans) == 17 and verdicts[True] > 17 and verdicts[False] > 0
    assert same_counts_apart > 0


def test_wonderful_anticanonical_reports_a_type_that_is_not_regular_dominant(monkeypatch, capsys):
    """A type whose anticanonical weight is refused fails the case, with a
    report and exit 1, instead of escaping as an error."""
    from weylfans import cli, lattice

    real = lattice.anticanonical_weight

    def refuse_d5(rs):
        if rs.label == "D5":
            raise InvalidInput(f"anticanonical weight of {rs.label} is not regular dominant")
        return real(rs)

    monkeypatch.setattr(lattice, "anticanonical_weight", refuse_d5)
    report = run_case("wonderful-anticanonical")
    assert report.verdict == "fail"
    assert report.computed["regular_dominant_all_rank_le8"] is False
    assert report.computed["rank_one_anticanonical_degree"] == 4
    assert cli.main(["verify", "--case", "wonderful-anticanonical"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("[FAIL] wonderful-anticanonical") and err == ""
