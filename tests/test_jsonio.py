from fractions import Fraction as Q

import pytest

from weylfans import jsonio
from weylfans.errors import InvalidInput
from weylfans.polyhedra import cone, fan
from weylfans.rootsys import build_root_system, simple_reflection
from weylfans.spherical import wonderful_colored_fan, z_colored_fan
from weylfans.toric import weyl_chamber_fan


def test_fraction_codec():
    assert jsonio.fraction_to_str(Q(3, 4)) == "3/4"
    assert jsonio.fraction_to_str(Q(-2)) == "-2/1"
    assert jsonio.str_to_fraction("3/4") == Q(3, 4)
    assert jsonio.str_to_fraction("-7") == Q(-7)
    with pytest.raises(InvalidInput):
        jsonio.str_to_fraction("x/y")
    with pytest.raises(InvalidInput):
        jsonio.str_to_fraction("1/0")


def test_fan_round_trip_bytes():
    for f in (
        fan([cone([[1, 0], [0, 1]]), cone([[0, 1], [-1, -1]]), cone([[-1, -1], [1, 0]])]),
        weyl_chamber_fan(build_root_system("G2")),
        weyl_chamber_fan(build_root_system("A2")),
    ):
        emitted = jsonio.dumps(jsonio.fan_to_json(f))
        import json

        decoded = jsonio.fan_from_json(json.loads(emitted))
        assert jsonio.dumps(jsonio.fan_to_json(decoded)) == emitted


def test_fan_from_json_rejects_malformed():
    with pytest.raises(InvalidInput):
        jsonio.fan_from_json({"rays": []})


def test_root_system_round_trip():
    import json

    rs = build_root_system("F4")
    emitted = jsonio.dumps(jsonio.root_system_to_json(rs))
    again = jsonio.root_system_from_json(json.loads(emitted))
    assert jsonio.dumps(jsonio.root_system_to_json(again)) == emitted
    tampered = json.loads(emitted)
    tampered["root_count"] = 47
    with pytest.raises(InvalidInput):
        jsonio.root_system_from_json(tampered)
    for bad in ({}, [], None, {"type": 5}, {"type": "A100000"}):
        with pytest.raises(InvalidInput):
            jsonio.root_system_from_json(bad)


def test_weyl_element_round_trip():
    rs = build_root_system("B3")
    w = simple_reflection(rs, 2)
    doc = jsonio.weyl_element_to_json(w)
    again = jsonio.weyl_element_from_json(doc)
    assert again == w and again.word == w.word
    assert jsonio.weyl_element_from_json({"matrix": doc["matrix"]}) == w
    for bad in (
        {},
        [],
        {"matrix": "1/1"},
        {"matrix": [["1/1", "0/1"]]},  # not square
        {"matrix": [["1/1", "0/1"], ["0/1"]]},  # ragged
        {"matrix": []},
        {"matrix": [[1]]},  # entries are "p/q" strings
        {"matrix": [["1/1"]], "word": "ab"},
        {"matrix": [["1/1"]], "word": [0]},
        {"matrix": [["1/1"]], "word": [True]},
    ):
        with pytest.raises(InvalidInput):
            jsonio.weyl_element_from_json(bad)


def test_ledger_round_trip():
    import json

    from weylfans.toric import blowup_boundary_point, projective_plane_ledger

    ledger = blowup_boundary_point(projective_plane_ledger(), "y0", ["H"])
    emitted = jsonio.dumps(jsonio.ledger_to_json(ledger))
    again = jsonio.ledger_from_json(json.loads(emitted))
    assert again == ledger
    assert jsonio.dumps(jsonio.ledger_to_json(again)) == emitted
    with pytest.raises(InvalidInput):
        jsonio.ledger_from_json({"components": [{}], "history": []})
    # a coefficient must be a JSON integer: no string, no float, no boolean
    for coefficient in ("2.5", 2.5, True):
        doc = {"components": [{"name": "H", "coefficient": coefficient}], "history": []}
        with pytest.raises(InvalidInput):
            jsonio.ledger_from_json(doc)


def test_colored_fan_serialization():
    f = wonderful_colored_fan(build_root_system("B3"))
    doc = jsonio.colored_fan_to_json(f)
    assert doc["rank"] == 3
    assert len(doc["cones"]) == 8
    assert {b["name"] for b in doc["boundary_divisors"]} == {"D1", "D2", "D3"}
    z = jsonio.colored_fan_to_json(z_colored_fan(3))
    assert [b["name"] for b in z["boundary_divisors"]] == ["Z1"]
    assert "D(w1)" in z["rho_table"]
