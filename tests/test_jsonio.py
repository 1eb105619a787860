from fractions import Fraction as Q

import pytest

from weylfans import jsonio
from weylfans.errors import InvalidInput
from weylfans.polyhedra import cone, fan
from weylfans.rootsys import build_root_system
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


def test_colored_fan_serialization():
    f = wonderful_colored_fan(build_root_system("B3"))
    doc = jsonio.colored_fan_to_json(f)
    assert doc["rank"] == 3
    assert len(doc["cones"]) == 8
    assert {b["name"] for b in doc["boundary_divisors"]} == {"D1", "D2", "D3"}
    z = jsonio.colored_fan_to_json(z_colored_fan(3))
    assert [b["name"] for b in z["boundary_divisors"]] == ["Z1"]
    assert "D(w1)" in z["rho_table"]
