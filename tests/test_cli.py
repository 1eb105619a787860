import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from weylfans import jsonio
from weylfans.cli import main
from weylfans.linalg import rank

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_root_system_command(capsys):
    code, out, err = run_cli(capsys, "root-system", "--type", "G2")
    assert code == 0
    assert "Weyl order: 12" in out
    code, out, _ = run_cli(capsys, "root-system", "--type", "E8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["weyl_order"] == 696729600
    assert doc["weight_root_index"] == 1


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "root-system")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    code, _, err = run_cli(capsys, "root-system", "--type", "Q7")
    assert code == 2 and "Q7" in err


@pytest.mark.parametrize(
    "args",
    [
        ["root-system", "--type", "A100000"],
        ["weights", "--type", "A100000", "--to", "simple_root"],
        ["spherical", "wonderful", "--type", "A100000"],
        ["root-system", "--type", "B" + "9" * 5000],  # more digits than int() reads
    ],
    ids=["root-system", "weights", "spherical-wonderful", "huge-rank"],
)
def test_oversized_root_system_exit_2(capsys, args):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *args)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["spherical", "wonderful", "--type", "A24"],
        ["spherical", "chain", "--rank", "28"],
        ["spherical", "z-fan", "--rank", "28"],
    ],
    ids=["wonderful-A24", "chain-28", "z-fan-28"],
)
def test_oversized_colored_face_enumeration_exit_2(capsys, args):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *args)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "faces" in err


def test_weights_command(capsys):
    code, out, _ = run_cli(capsys, "weights", "--type", "B3", "--to", "simple_root", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vectors"]["omega3"] == ["1/2", "1/1", "3/2"]


def test_fan_commands(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "fan", "build", "--type", "A2")
    assert code == 0
    fan_path = tmp_path / "a2.json"
    fan_path.write_text(out)

    code, out2, _ = run_cli(capsys, "fan", "check", "--input", str(fan_path))
    assert code == 0
    assert out2 == "complete=True smooth=True picard=4\n"

    # subdividing at an existing ray re-emits the same fan, byte for byte
    ray = ",".join(json.loads(out)["rays"][0])
    code, out3, _ = run_cli(capsys, "fan", "subdivide", "--input", str(fan_path), f"--ray={ray}")
    assert code == 0
    assert out3 == out


# the text mode of every command with one, byte for byte
TEXT_OUTPUT = [
    (
        ["root-system", "--type", "G2"],
        "type G2: rank 2, ambient dimension 3\n"
        "roots: 12 (6 positive)\n"
        "highest root: ['1/1', '1/1', '-2/1']\n"
        "Weyl order: 12\n"
        "weight/root lattice index: 1\n"
        "Cartan matrix: [[2, -1], [-3, 2]]\n",
    ),
    (
        ["weights", "--type", "F4", "--to", "fund_weight"],
        "type F4 in basis fund_weight\n"
        "omega1: ['1/1', '0/1', '0/1', '0/1']\n"
        "alpha1: ['2/1', '-1/1', '0/1', '0/1']\n"
        "omega2: ['0/1', '1/1', '0/1', '0/1']\n"
        "alpha2: ['-1/1', '2/1', '-2/1', '0/1']\n"
        "omega3: ['0/1', '0/1', '1/1', '0/1']\n"
        "alpha3: ['0/1', '-1/1', '2/1', '-1/1']\n"
        "omega4: ['0/1', '0/1', '0/1', '1/1']\n"
        "alpha4: ['0/1', '0/1', '-1/1', '2/1']\n",
    ),
    (
        ["spherical", "extend", "--rank", "3"],
        "wonderful->quotient: True; quotient->wonderful: False\n",
    ),
    (
        ["orbits", "lg", "--n", "2", "--samples", "5"],
        "k=0: dim 10 (codim 0)\n"
        "k=1: dim 9 (codim 1)\n"
        "k=2: dim 6 (codim 4)\n"
        "maximal isotropic subspaces meet both summands in equal dimension: 0 violations in 5 samples\n"
        "the sign involution fixes a subspace exactly when its invariant is maximal: 0 violations in 7 samples\n",
    ),
    (
        ["orbits", "og", "--n", "2", "--samples", "5"],
        "k=0: dim 10 (codim 0)\n"
        "k=1: dim 9 (codim 1)\n"
        "k=2: dim 6 (codim 4)\n"
        "maximal isotropic subspaces meet both summands in equal dimension: 0 violations in 5 samples\n",
    ),
    (
        ["verify", "--case", "e8-weyl-order"],
        "[PASS] e8-weyl-order: the largest exceptional Weyl group has order 2^14 * 3^5 * 5^2 * 7, with the expected restriction ratios down the exceptional series\n"
        "    order: computed=696729600 expected=696729600 (tabulated) ok\n"
        "    factorization_holds: computed=True expected=True (tabulated) ok\n"
        "    e8_to_e7_ratio: computed=240 expected=240 (recomputed) ok\n"
        "    e7_to_d6_ratio: computed=126 expected=126 (recomputed) ok\n",
    ),
]


@pytest.mark.parametrize("args, expected", TEXT_OUTPUT, ids=["-".join(args) for args, _ in TEXT_OUTPUT])
def test_text_output_is_pinned(capsys, args, expected):
    assert run_cli(capsys, *args) == (0, expected, "")


def test_fan_check_p2(capsys, tmp_path):
    p2 = {
        "ambient_dim": 2,
        "lattice": "standard",
        "rays": [["-1/1", "-1/1"], ["0/1", "1/1"], ["1/1", "0/1"]],
        "maximal_cones": [[0, 1], [0, 2], [1, 2]],
    }
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(p2))
    code, out, _ = run_cli(capsys, "fan", "check", "--input", str(path))
    assert code == 0
    assert "complete=True smooth=True picard=1" in out


def test_fan_check_p8_is_quick(capsys, tmp_path):
    """Completeness of the fan of P^8, 9 rays and 9 maximal cones, is read
    off wall counts; a search over the 2^8 sign orthants took minutes."""
    rays = [[str(int(i == j)) for j in range(8)] for i in range(8)] + [["-1"] * 8]
    p8 = {
        "ambient_dim": 8,
        "lattice": "standard",
        "rays": rays,
        "maximal_cones": [[k for k in range(9) if k != i] for i in range(9)],
    }
    path = tmp_path / "p8.json"
    path.write_text(json.dumps(p8))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "fan", "check", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == "complete=True smooth=True picard=None\n"


def test_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "fan", "check", "--input", str(path))
    assert code == 2
    assert "line 1" in err


# CPython refuses to convert an integer of more than jsonio.digit_limit()
# digits (4,300 by default) to or from a string.
# Each entry of the first ray is under the limit, but its primitive ray is
# not; the second ray has an entry over the limit.
A, B = 10**3001 + 1, 10**3000 + 3
OVER_THE_LIMIT = "1" + "0" * 4400


@pytest.mark.parametrize(
    "args, message",
    [
        ([f"--ray={A}/{B},{B}/{A}"], "an entry of 19939 bits is above the 4300-digit limit for writing integers"),
        ([f"--ray={A}/{B},{B}/{A}", "--json"], "an entry of 19939 bits is above the 4300-digit limit for writing integers"),
        ([f"--ray={OVER_THE_LIMIT},1"], "an entry of 4401 characters is above the 4300-digit limit for reading integers"),
        ([f"--ray=1,-{OVER_THE_LIMIT}/3"], "an entry of 4404 characters is above the 4300-digit limit for reading integers"),
    ],
    ids=["primitive-ray", "primitive-ray-json", "entry", "fraction-entry"],
)
def test_digit_limit_exit_2(capsys, tmp_path, args, message):
    """Past the digit limit a ray or its output is refused in one line that
    does not echo the digits; before, the first two exited 3."""
    assert jsonio.digit_limit() == 4300
    path = tmp_path / "p2.json"
    p2 = {"ambient_dim": 2, "lattice": "standard", "rays": [["1", "0"], ["0", "1"], ["-1", "-1"]]}
    path.write_text(json.dumps({**p2, "maximal_cones": [[0, 1], [1, 2], [0, 2]]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fan", "subdivide", "--input", str(path), *args)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unreadable_documents_exit_2(capsys, tmp_path):
    """A number past the digit limit in a fan document, and bytes that are
    not UTF-8, are refused in one line; before, both exited 3."""
    path = tmp_path / "doc.json"
    path.write_text('{"ambient_dim": ' + "1" * 5000 + ', "lattice": "standard", "rays": [], "maximal_cones": []}')
    code, out, err = run_cli(capsys, "fan", "check", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: a number in {path} is above the 4300-digit limit for reading integers\n")
    path.write_bytes(b'{"rays": "\xff"}')
    code, out, err = run_cli(capsys, "fan", "check", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: cannot read {path}: not UTF-8 at byte 10\n")


# fields whose refusal names them: strings and objects where arrays belong,
# and a cone entry that is not an array
MISTYPED = [
    ("lattice", "10"),
    ("lattice", {"a": ["1", "0"], "b": ["0", "1"]}),
    ("rays", "ab"),
    ("rays", {"x": ["1/1", "0/1"]}),
    ("maximal_cones", "01"),
    ("maximal_cones", {"a": 1}),
    ("maximal_cones", [[0, 1], "02", [1, 2]]),
]


@pytest.mark.parametrize(
    "field, value",
    [
        ("maximal_cones", [[0, 5]]),  # index past the last ray
        ("maximal_cones", [[0, -1]]),  # negative index, not "the last ray"
        ("ambient_dim", "2.5"),
        ("lattice", [["1/1", "0/1"], ["0/1", "1/1"], ["1/1", "1/1"]]),  # dependent rows
        ("lattice", [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"]]),  # rows too long
        pytest.param(  # a whole document: no rays, so no cone checks the dimension
            None,
            {"ambient_dim": -1, "lattice": "standard", "rays": [], "maximal_cones": [[]]},
            id="negative-ambient_dim",
        ),
        # strings where vectors belong, which once read one character per entry
        pytest.param(
            None,
            {
                "rays": ["10", "01", ["-1/1", "0/1"], ["0/1", "-1/1"]],
                "maximal_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
            },
            id="string-rays",
        ),
        pytest.param("lattice", ["10", "01"], id="string-lattice-rows"),
        # a field of the wrong JSON type, once read one character or key at a time
        *(pytest.param(field, value, id=f"mistyped-{field}-{k}") for k, (field, value) in enumerate(MISTYPED)),
    ],
)
def test_malformed_fan_document_exit_2(capsys, tmp_path, field, value):
    doc = {
        "ambient_dim": 2,
        "lattice": "standard",
        "rays": [["-1/1", "-1/1"], ["0/1", "1/1"], ["1/1", "0/1"]],
        "maximal_cones": [[0, 1], [0, 2], [1, 2]],
    }
    doc.update(value if field is None else {field: value})
    path = tmp_path / "bad_fan.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "fan", "check", "--input", str(path))
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    if (field, value) in MISTYPED:
        assert field in err
    if (field, value) == MISTYPED[-1]:  # a cone entry is named by its position
        assert "entry 1" in err
    if field is None and value["rays"][:1] == ["10"]:  # and so is a ray entry
        assert err == "error: fan rays entry 0 must be an array, not str\n"
    if value == ["10", "01"]:  # and a lattice row
        assert err == "error: fan lattice row 0 must be an array, not str\n"


def _zero_cone_document(dim):
    return {"ambient_dim": dim, "lattice": "standard", "rays": [], "maximal_cones": [[]]}


def test_oversized_ambient_dim_exit_2(capsys, tmp_path):
    """A zero cone's check eliminates the identity of the ambient dimension,
    so a short document could ask for any amount of work; it is refused
    before any cone is built."""
    from weylfans.jsonio import MAX_AMBIENT_DIM

    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_zero_cone_document(MAX_AMBIENT_DIM + 1)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fan", "check", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: fan ambient_dim {MAX_AMBIENT_DIM + 1} is above the bound {MAX_AMBIENT_DIM}\n"
    # the bound itself is read, and A44 (ambient dimension 45), the largest
    # type rootsys.MAX_ROOTS admits, fits under it
    assert MAX_AMBIENT_DIM >= 45
    path.write_text(json.dumps(_zero_cone_document(MAX_AMBIENT_DIM)))
    code, out, _ = run_cli(capsys, "fan", "check", "--input", str(path))
    assert (code, out) == (0, "complete=False smooth=True picard=None\n")


def test_oversized_incomplete_fan_exit_2(capsys, tmp_path):
    """A document whose cones are not a complete fan is checked pair by
    pair; with more pairs than the bound it is refused before the first."""
    from weylfans.polyhedra import MAX_FAN_PAIRS

    n = 500  # a strip of plane cones, each meeting the next in a ray
    doc = {
        "ambient_dim": 2,
        "lattice": "standard",
        "rays": [["1", str(k)] for k in range(n + 1)],
        "maximal_cones": [[k, k + 1] for k in range(n)],
    }
    pairs = n * (n - 1) // 2
    assert pairs > MAX_FAN_PAIRS
    path = tmp_path / "strip.json"
    path.write_text(json.dumps(doc))
    for args in (["check"], ["subdivide", "--ray=1,1"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "fan", *args, "--input", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: {n} maximal cones make {pairs} pairs to check, above the bound {MAX_FAN_PAIRS}\n"


def test_overlapping_cones_refused_with_plain_entries(capsys, tmp_path):
    """A P^2 document with one more cone overlapping two of its cones fails
    the completeness certificate and is refused by the pairwise check,
    which writes both cones' generators with plain rational entries."""
    doc = {
        "ambient_dim": 2,
        "lattice": "standard",
        "rays": [["-1/1", "-1/1"], ["0/1", "1/1"], ["1/1", "0/1"], ["-1/1", "0/1"], ["1/2", "1/2"]],
        "maximal_cones": [[0, 1], [0, 2], [1, 2], [3, 4]],
    }
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    for args in (["check"], ["subdivide", "--ray=1,1"]):
        code, out, err = run_cli(capsys, "fan", *args, "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: cones ((-1, -1), (0, 1)) and ((-1, 0), (1, 1)) do not intersect in a common face\n"
        assert "Fraction(" not in err and "Traceback" not in err and err.count("\n") == 1


def _two_cone_document(d: int) -> dict:
    """Two random full cones in d dimensions, standard lattice: each cone's
    d x d block of entries in -3..3 is drawn again until it has rank d."""
    rng = random.Random(3)
    rays = []
    for _ in range(2):
        while True:
            block = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if rank(block) == d:
                break
        rays += block
    return {
        "ambient_dim": d,
        "lattice": "standard",
        "rays": [[str(x) for x in row] for row in rays],
        "maximal_cones": [list(range(d)), list(range(d, 2 * d))],
    }


@pytest.mark.parametrize("d, rows", [(10, 735450), (12, 753167), (16, 57961)])
def test_two_cone_documents_exit_2_past_the_elimination_bound(capsys, tmp_path, d, rows):
    """The pairwise check of two random cones poses a Fourier-Motzkin system
    that squares at each step; a step past the bound is refused in one
    line.  Before, d = 10 took 10 s and exited 0, and d = 12 ran out of
    memory (exit 3)."""
    path = tmp_path / f"two_cones_{d}.json"
    path.write_text(json.dumps(_two_cone_document(d)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fan", "check", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: a Fourier-Motzkin step would make {rows} rows, above the bound 20000\n"


def test_fan_on_empty_lattice_exit_2(capsys, tmp_path):
    doc = {"ambient_dim": 2, "lattice": [], "rays": [["1/1", "0/1"]], "maximal_cones": [[0]]}
    path = tmp_path / "empty_lattice.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "fan", "check", "--json", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: generator (1, 0) lies outside the span of the reference lattice\n"


def test_lattice_refusals_name_lengths_and_plain_entries(capsys, tmp_path):
    """A subdivision ray of the wrong length is refused by both lengths
    before any lattice is read, in a reference lattice (the G2 chamber fan)
    and in the standard one (P^2); a generator off the reference lattice is
    written with plain rational entries."""
    code, out, _ = run_cli(capsys, "fan", "build", "--type", "G2")
    assert code == 0
    g2 = json.loads(out)
    p2 = {
        "ambient_dim": 2,
        "lattice": "standard",
        "rays": [["-1/1", "-1/1"], ["0/1", "1/1"], ["1/1", "0/1"]],
        "maximal_cones": [[0, 1], [0, 2], [1, 2]],
    }
    path = tmp_path / "fan.json"
    for doc, ray, message in (
        (g2, "1,1", "subdivision ray has length 2, not the fan's ambient dimension 3"),
        (p2, "1,1,1", "subdivision ray has length 3, not the fan's ambient dimension 2"),
    ):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "fan", "subdivide", "--input", str(path), f"--ray={ray}")
        assert (code, out, err) == (2, "", f"error: {message}\n")
    g2["rays"][0] = ["1/1", "0/1", "0/1"]
    path.write_text(json.dumps(g2))
    code, out, err = run_cli(capsys, "fan", "check", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: generator (1, 0, 0) lies outside the span of the reference lattice\n"


def test_spherical_commands(capsys):
    code, out, _ = run_cli(capsys, "spherical", "wonderful", "--type", "B3")
    assert code == 0
    assert len(json.loads(out)["cones"]) == 8

    code, out, _ = run_cli(capsys, "spherical", "extend", "--rank", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"wonderful_to_quotient": True, "quotient_to_wonderful": False}

    code, out, _ = run_cli(capsys, "spherical", "chain", "--rank", "2")
    assert code == 0
    doc = json.loads(out)
    assert [s["extends"] for s in doc["steps"]] == [True]
    assert [s["reverse_extends"] for s in doc["steps"]] == [False]


def test_orbits_command(capsys):
    code, out, _ = run_cli(capsys, "orbits", "lg", "--n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["table"][0] == {"k": 0, "dim": 21, "codim": 0}
    code, out, _ = run_cli(capsys, "orbits", "og", "--n", "2", "--samples", "5", "--seed", "3", "--json")
    assert code == 0
    assert json.loads(out)["sampled_checks"][0]["violations"] == 0


@pytest.mark.parametrize("kind", ["lg", "og"])
def test_orbits_negative_samples_exit_2(capsys, kind):
    code, out, err = run_cli(capsys, "orbits", kind, "--n", "2", "--samples", "-5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("kind", ["lg", "og"])
def test_orbits_oversized_samples_exit_2(capsys, kind):
    """A sample count above MAX_SAMPLES is refused before the first draw, in
    one line with no traceback, at the sampling bound's half rank, where a
    draw takes about 0.3 s."""
    from weylfans.isotropic import MAX_SAMPLES

    start = time.perf_counter()
    code, out, err = run_cli(capsys, "orbits", kind, "--n", "10", "--samples", "1000000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: sample count 1000000000 is above the bound {MAX_SAMPLES}\n"


@pytest.mark.parametrize("kind", ["lg", "og"])
def test_oversized_sampler_exit_2(capsys, kind):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "orbits", kind, "--n", "24", "--samples", "1")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    # the stratum table alone is a closed formula, bounded only by its row
    # count (MAX_TABLE_HALF_RANK), so it is still printed at this half rank
    code, out, _ = run_cli(capsys, "orbits", kind, "--n", "24", "--json")
    assert code == 0 and len(json.loads(out)["table"]) == 25


@pytest.mark.parametrize("kind", ["lg", "og"])
def test_oversized_orbit_table_exit_2(capsys, kind):
    """The orbits table has a row per invariant 0..n; a half rank above the
    bound is refused before the first row is built, and the bound itself is
    still printed."""
    from weylfans.cli import MAX_TABLE_HALF_RANK

    above = str(MAX_TABLE_HALF_RANK + 1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "orbits", kind, "--n", above, "--json")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: half rank {above} is above the table bound {MAX_TABLE_HALF_RANK}\n"
    code, out, _ = run_cli(capsys, "orbits", kind, "--n", str(MAX_TABLE_HALF_RANK), "--json")
    assert code == 0 and len(json.loads(out)["table"]) == MAX_TABLE_HALF_RANK + 1


def test_unexpected_exception_exit_3(capsys, monkeypatch):
    import weylfans.cli as cli

    def broken(args):
        raise ZeroDivisionError("division by zero\nsecond line")

    monkeypatch.setattr(cli, "_cmd_orbits", broken)
    code, out, err = run_cli(capsys, "orbits", "lg", "--n", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: ZeroDivisionError: division by zero second line\n"
    assert "Traceback" not in err


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "e8-weyl-order")
    assert code == 0
    assert "696729600" in out
    code, out, _ = run_cli(capsys, "verify", "--case", "surface-blowup-cases", "--json")
    assert code == 0
    assert json.loads(out)[0]["verdict"] == "pass"
    assert run_cli(capsys, "verify", "--case", "missing-case")[0] == 2
    # an empty case name is a missing case, not the whole casebook
    assert run_cli(capsys, "verify", "--case", "")[:2] == (2, "")


def test_python_m_weylfans_runs_the_command(capsys):
    """`python -m weylfans` writes what `cli.main` writes, to stdout and
    stderr, and exits with its code, also on a usage error (exit 2)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    for argv, want in ((["verify", "--case", "e8-weyl-order", "--json"], 0), (["root-system"], 2)):
        done = subprocess.run([sys.executable, "-m", "weylfans", *argv], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv)
        assert done.returncode == want
