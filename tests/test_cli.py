import json
import time

import pytest

from weylfans.cli import main


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
    assert "complete=True smooth=True picard=4" in out2

    # subdividing at an existing ray re-emits the same fan, byte for byte
    ray = ",".join(json.loads(out)["rays"][0])
    code, out3, _ = run_cli(capsys, "fan", "subdivide", "--input", str(fan_path), f"--ray={ray}")
    assert code == 0
    assert out3 == out


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


def test_fan_on_empty_lattice_exit_2(capsys, tmp_path):
    doc = {"ambient_dim": 2, "lattice": [], "rays": [["1/1", "0/1"]], "maximal_cones": [[0]]}
    path = tmp_path / "empty_lattice.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "fan", "check", "--json", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: generator (Fraction(1, 1), Fraction(0, 1)) "
        "lies outside the span of the reference lattice\n"
    )


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
def test_oversized_sampler_exit_2(capsys, kind):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "orbits", kind, "--n", "24", "--samples", "1")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    # the stratum table alone is a closed formula and stays unbounded
    code, out, _ = run_cli(capsys, "orbits", kind, "--n", "24", "--json")
    assert code == 0 and len(json.loads(out)["table"]) == 25


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
