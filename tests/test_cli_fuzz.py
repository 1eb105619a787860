"""Seeded fuzz of the command line's input boundary, run in process through
`cli.main`: mutated fan documents through `fan check` and `fan subdivide`,
and junk arguments for every subcommand.  Every run must end in exit 0 or
2; an exit 2 is either one stderr line starting "error: " or, for
arguments argparse itself refuses, its usage message; and no run prints a
traceback.  Each document `fan check` accepts also round-trips: its
canonical text reads back to the same bytes.  Sizes stay small, because
--n, --samples and --rank scale work by design and their bounds are tested
in test_cli."""

import contextlib
import copy
import io
import json
import random
import time

from weylfans import jsonio
from weylfans.cli import main
from weylfans.rootsys import build_root_system
from weylfans.toric import weyl_chamber_fan

JUNK = [None, True, False, 0, -1, 3, 2.5, 10**30, "", "x", "10", "1/0", "standard", [], [[]], [1, 2],
        ["1/0"], [None], {}, {"a": 1}, [["1/1", "0/1"]]]
JUNK_ENTRIES = [None, True, 1.0, -1, 99, "0", "", "1/0", "1/2/3", "a", "99999999999999999999", [], [0], {}]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(argv, code, err):
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    assert "Fraction(" not in err, (argv, err)
    if code == 0:
        return
    lines = err.splitlines()
    if lines and lines[0].startswith("usage: weylfans"):  # refused by argparse
        assert ": error: " in lines[-1], (argv, err)
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ") and err.endswith("\n"), (argv, err)


def _mutate(rng, doc):
    """Drop a field, replace one with junk, or put a bad entry inside the
    lattice, the rays or the maximal cones."""
    doc = copy.deepcopy(doc)
    field = rng.choice(["ambient_dim", "lattice", "rays", "maximal_cones"])
    kind = rng.randrange(4)
    if kind == 0:
        doc.pop(field, None)
    elif kind == 1:
        doc[field] = copy.deepcopy(rng.choice(JUNK))
    elif isinstance(doc.get(field), list) and doc[field]:
        rows = doc[field]
        i = rng.randrange(len(rows))
        if kind == 2 or not isinstance(rows[i], list) or not rows[i]:
            rows[i] = copy.deepcopy(rng.choice(JUNK + JUNK_ENTRIES))
        else:
            rows[i][rng.randrange(len(rows[i]))] = copy.deepcopy(rng.choice(JUNK_ENTRIES))
    elif field == "lattice":
        doc[field] = [[str(rng.randint(-1, 1)) for _ in range(2)] for _ in range(rng.randint(0, 3))]
    return doc


def _documents(rng, count):
    a2 = jsonio.fan_to_json(weyl_chamber_fan(build_root_system("A2")))
    p2 = {
        "ambient_dim": 2,
        "lattice": "standard",
        "rays": [["-1/1", "-1/1"], ["0/1", "1/1"], ["1/1", "0/1"]],
        "maximal_cones": [[0, 1], [0, 2], [1, 2]],
    }
    for _ in range(count):
        doc = rng.choice([a2, p2])
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            doc = _mutate(rng, doc)
        yield doc


def test_mutated_fan_documents(tmp_path):
    rng = random.Random(1986)
    path = tmp_path / "fuzz.json"
    rays = ["0,1", "1,1", "1/2,-3", "0,0", "1", "1,2,3", "a,b", "1/0,1", ",", ""]
    codes = {0: 0, 2: 0}
    round_trips = 0
    start = time.perf_counter()
    for doc in _documents(rng, 150):
        path.write_text(json.dumps(doc))
        for argv in (
            ["fan", "check", "--input", str(path), *rng.choice([[], ["--json"]])],
            ["fan", "subdivide", "--input", str(path), f"--ray={rng.choice(rays)}"],
        ):
            code, err = _run(argv)
            _check(argv, code, err)
            codes[code] += 1
            if code == 0 and argv[1] == "check":
                text = jsonio.dumps(jsonio.fan_to_json(jsonio.fan_from_json(doc)))
                assert jsonio.dumps(jsonio.fan_to_json(jsonio.fan_from_json(json.loads(text)))) == text
                round_trips += 1
    # truncated documents are malformed JSON
    for cut in (1, 10, 40):
        path.write_text(json.dumps(doc)[:cut])
        argv = ["fan", "check", "--input", str(path)]
        code, err = _run(argv)
        _check(argv, code, err)
        assert code == 2 and "malformed JSON" in err
    assert time.perf_counter() - start < 5
    assert min(codes.values()) > 10 and round_trips > 10, (codes, round_trips)


def _junk_argv(rng, tmp_path):
    label = rng.choice(["", "A", "Z9", "a2", "A2 ", "E5", "E9", "F5", "G3", "B1", "A1e3", "2A"]
                       + [f"{f}{n}" for f in "ABCDG" for n in (-1, 0, 1, 2, 99999)])
    number = str(rng.choice([-3, -1, 0, 1, 2, 3, 40, 10**6]))
    small = str(rng.choice([-2, -1, 0, 1, 2, 3]))
    missing = str(tmp_path / "missing.json")
    junk = rng.choice(["--bogus", "x", "--json", "--rank=abc", "--n", "--type"])
    return rng.choice([
        ["root-system", "--type", label],
        ["weights", "--type", label, "--to", rng.choice(["ambient", "fund_weight", "simple_coroot", "nope"])],
        ["fan", "build", "--type", label],
        ["fan", rng.choice(["build", "check", "subdivide"])],
        ["fan", rng.choice(["check", "subdivide"]), "--input", missing, "--ray", "1,0"],
        ["spherical", "wonderful", "--type", label],
        ["spherical", rng.choice(["z-fan", "chain", "extend"]), "--rank", number],
        ["orbits", rng.choice(["lg", "og"]), "--n", small, "--samples", rng.choice(["-5", "-1", "0", "1", "2"])],
        ["orbits", rng.choice(["lg", "og"]), "--n", "24", "--samples", "1", "--seed", number],
        ["verify", "--case", rng.choice(["", "missing", "e8", "E8-weyl-order", "e8-weyl-order "])],
        [rng.choice(["root-system", "weights", "fan", "spherical", "orbits", "verify", "nope"]), junk],
    ])


def test_junk_arguments_for_every_subcommand(tmp_path):
    rng = random.Random(1848)
    codes = {0: 0, 2: 0}
    start = time.perf_counter()
    for _ in range(200):
        argv = _junk_argv(rng, tmp_path)
        code, err = _run(argv)
        _check(argv, code, err)
        codes[code] += 1
    assert time.perf_counter() - start < 5
    assert min(codes.values()) > 10, codes
