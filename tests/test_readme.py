"""The README names only code that exists: every backticked identifier in a
row of the Layout table is an attribute of that row's module or of the
package (a dotted name is followed attribute by attribute, and a name with a
leading dot is an attribute of some class of the module).  The one
exception is the cli row's `weylfans`, which names the command.  The
README's `fan` commands run as written."""

import importlib
import inspect
import re
import shlex
from pathlib import Path

import weylfans
from weylfans.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"\| `weylfans\.(\w+)` \| (.*) \|$")
NAME = re.compile(r"\.?[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _layout_rows():
    layout = README.read_text(encoding="utf-8").split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for m in map(ROW.match, layout.splitlines()) if m]


def _resolves(module, name: str) -> bool:
    if name.startswith("."):
        classes = [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__]
        return any(hasattr(c, name[1:]) for c in classes)
    for root in (module, weylfans):
        obj = root
        for part in name.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                break
        else:
            return True
    return False


def test_layout_table_names_only_code_that_exists():
    rows = _layout_rows()
    assert [m for m, _ in rows] == [
        "linalg", "rootsys", "lattice", "polyhedra", "toric", "spherical", "isotropic", "casebook", "cli",
    ]
    checked, missing = 0, []
    for module_name, contents in rows:
        module = importlib.import_module(f"weylfans.{module_name}")
        for span in re.findall(r"`([^`]*)`", contents):
            if not NAME.fullmatch(span) or (module_name, span) == ("cli", "weylfans"):
                continue
            checked += 1
            if not _resolves(module, span):
                missing.append((module_name, span))
    assert missing == [] and checked > 10


def test_fan_commands_run_as_written(capsys, tmp_path):
    """The Command line section's `fan` commands, in order: `fan build` writes
    the document the next two read as fan.json, and each exits 0."""
    block = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("weylfans fan ")]
    assert [argv[2] for argv in commands] == ["build", "check", "subdivide"]
    document = tmp_path / "fan.json"
    for argv in commands:
        assert main([str(document) if arg == "fan.json" else arg for arg in argv[1:]]) == 0, argv
        out = capsys.readouterr().out
        if argv[2] == "build":
            document.write_text(out)
