"""Every name in src/ has a caller: each module-level function or class of
`weylfans`, and each non-dunder method of such a class, is named (by a
`Name`, an `Attribute` or an import) somewhere in src/ outside its own
definition, or is the console script `cli.main`.  An exported name counts,
because `__init__` imports it; a `Name` bound inside its enclosing function
(a parameter or a local, as `height` in `positive_root_vectors`) names
that local, not a definition, and does not count.  A name named only inside definitions
without a caller has no caller either.  The few names kept for a caller
outside src/ are listed below with their reason, and each of them must
really have no caller in src/, so the list cannot go stale.  A second
guard keeps the calls of `_ray_keys`, which names a fan's rays, to where
fans are built."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weylfans"

ALLOWED = {
    ("isotropic", "DoubledSpace.form"): "the README Layout row names it",
    ("jsonio", "root_system_from_json"): "it backs the README round-trip promise",
    ("jsonio", "weyl_element_to_json"): "perfbench's lattice group encoder calls it",
    ("spherical", "wonderful_divisor_ledger"): "perfbench's fans picard_presentation op calls it",
    ("polyhedra", "RationalCone.lattice_coords"): "acceptance criterion 4 reads it",
    ("rootsys", "RootSystem.reflection_matrix"): (
        "the Fraction oracle that tests/test_integer_root_data.py compares simple_reflection against"
    ),
    ("rootsys", "RootSystem.simple_root_coords"): "the README Layout row names it and tests read it",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(qualified name, bare name, node) of each module-level function or
    class and each non-dunder method of such a class."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item


def _locals(fn):
    """The names a function binds: its parameters and every name stored or
    deleted anywhere inside it, less those it declares global or nonlocal."""
    args = fn.args
    params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
    stored = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del))}
    declared = {name for n in ast.walk(fn) if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
    return (params | stored) - declared


def _references(node, enclosing=(), local=frozenset()):
    """(name, enclosing definitions) of each Name, Attribute and imported
    name under `node`; a Name bound by an enclosing function is its local
    and is left out."""
    if isinstance(node, ast.Name):
        if node.id not in local:
            yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield alias.name.rsplit(".", 1)[-1], enclosing
    if isinstance(node, DEFS):
        enclosing = enclosing + (node,)
        if not isinstance(node, ast.ClassDef):
            local = local | _locals(node)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing, local)


def _uncalled():
    """The definitions no live code names.  Code inside an uncalled
    definition is dead unless that definition is the console script or
    allowed, so a name called only from dead code is uncalled too; this
    repeats until nothing changes."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    references = [ref for tree in trees.values() for ref in _references(tree)]
    definitions = [(module, *d) for module, tree in trees.items() for d in _definitions(tree)]
    uncalled, dead = set(), set()
    while True:
        before = len(uncalled)
        for module, qualified, name, node in definitions:
            if (module, qualified) == ("cli", "main") or any(
                ref == name and node not in enclosing and dead.isdisjoint(enclosing)
                for ref, enclosing in references
            ):
                continue
            uncalled.add((module, qualified))
            if (module, qualified) not in ALLOWED:
                dead.add(node)
        if len(uncalled) == before:
            return uncalled


def test_every_name_in_src_has_a_caller():
    uncalled = _uncalled()
    missing = sorted(uncalled - set(ALLOWED))
    assert missing == [], "no caller in src/: " + ", ".join(f"{m}.{name}" for m, name in missing)
    # an allowed name that gains a caller in src/ leaves the list
    assert sorted(set(ALLOWED) - uncalled) == []


# the definitions that name a fan's rays, where the fan is built: `fan`, and
# the cache declarations in the `Fan` and `ColoredFan` class bodies; every
# other reader reads the names kept on the fan
RAY_KEY_CALLERS = {("polyhedra", "fan"), ("polyhedra", "Fan"), ("spherical", "ColoredFan")}


def _calls(node, module, enclosing=""):
    """(module, enclosing qualified definition) of each call of `_ray_keys`
    under `node`."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_ray_keys":
        yield module, enclosing
    if isinstance(node, DEFS):
        enclosing = f"{enclosing}.{node.name}" if enclosing else node.name
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, module, enclosing)


def test_only_fan_constructors_name_rays():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert {call for module, tree in trees.items() for call in _calls(tree, module)} == RAY_KEY_CALLERS
    naming = {module for module, tree in trees.items() for ref, _ in _references(tree) if ref == "_ray_keys"}
    assert naming == {"polyhedra", "spherical"}
