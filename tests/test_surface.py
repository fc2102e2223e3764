"""The public surface: every public function and method of the package has a
caller inside the package or is exported, so no API lives for tests alone."""

import ast
from collections import Counter
from pathlib import Path

import sgclass

SOURCES = sorted(Path(sgclass.__file__).parent.glob("*.py"))


def public_definitions(tree):
    """(qualified name, def node) for each public module-level function and
    each public method of a module-level class; a name that starts with an
    underscore, a dunder included, is private."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node


def read_names(*nodes) -> tuple[Counter, Counter]:
    """The identifiers that ``nodes`` read: (names loaded, attribute names)."""
    loaded, attributes = Counter(), Counter()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            loaded[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attributes[sub.attr] += 1
    return loaded, attributes


def reads(names: tuple[Counter, Counter], name: str, method: bool) -> int:
    """How often ``names`` read ``name``: a method only as an attribute
    (``.name``), so a local variable of the same name does not count; a
    function also as a loaded name."""
    loaded, attributes = names
    return attributes[name] + (0 if method else loaded[name])


def callerless(trees: dict, exported: set, callers: tuple = ()) -> list[str]:
    """The public definitions that no code of ``trees`` or ``callers`` reads
    outside their own body (so recursion does not count) and that
    ``exported`` does not name."""
    everywhere = read_names(*trees.values(), *callers)
    found = []
    for module, tree in trees.items():
        for qualname, node in public_definitions(tree):
            method = "." in qualname
            own = reads(read_names(node), node.name, method)
            if node.name not in exported and reads(everywhere, node.name, method) == own:
                found.append(f"{module}.{qualname}")
    return found


# The benchmark's oracles call the package as a user does; this is the one
# public name that only they read: bench/workloads.py checks the Latin square
# of ``ClassGroup.table``, which the package itself derives from ``mul`` and
# never reads.
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
BENCH_ONLY = ["domains.ClassGroup.table"]


def test_every_public_function_has_a_caller_or_is_exported():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    exported = set(sgclass.__all__)
    assert callerless(trees, exported) == BENCH_ONLY
    bench = tuple(ast.parse(path.read_text(encoding="utf-8")) for path in BENCH)
    assert callerless(trees, exported, bench) == []


def test_the_guard_sees_a_function_without_a_caller():
    source = ("def helper():\n    return helper()\n\n"
              "def used():\n    method = 1\n    return method\n\n"
              "def exported():\n    return 2\n\n"
              "class K:\n    def method(self):\n        return 3\n\n"
              "    def _private(self):\n        return 4\n\n"
              "x = used()\n")
    trees = {"m": ast.parse(source)}
    assert callerless(trees, {"exported"}) == ["m.helper", "m.K.method"]
    # a read outside the package counts only when passed as a caller
    assert callerless(trees, {"exported"}, (ast.parse("K().method()"),)) == ["m.helper"]


# Each module imports only from strictly lower layers; ``__init__`` exports all.
LAYERS = {"records": 0, "errors": 0, "semigroups": 1, "ideals": 2, "domains": 3,
          "graded": 4, "quadric": 4, "suites": 5, "cli": 6}


def package_imports(tree) -> set[str]:
    """The package modules that ``tree`` imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sgclass."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("sgclass."))
    return found


def test_modules_import_only_from_lower_layers():
    assert {path.stem for path in SOURCES} == set(LAYERS) | {"__init__"}
    upward = {}
    for path in SOURCES:
        if path.stem != "__init__":
            imported = package_imports(ast.parse(path.read_text(encoding="utf-8")))
            upward[path.stem] = sorted(m for m in imported
                                       if LAYERS[m] >= LAYERS[path.stem])
    assert upward == {module: [] for module in LAYERS}


def test_the_layer_guard_sees_an_upward_import():
    tree = ast.parse("from .domains import x\nfrom . import ideals\n"
                     "def f():\n    from sgclass.cli import run\n")
    assert package_imports(tree) == {"domains", "ideals", "cli"}
