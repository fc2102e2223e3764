"""The public surface: every public function and method of the package has a
caller inside the package or is exported, so no API lives for tests alone."""

import ast
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


def referenced_names(node) -> list[str]:
    """Every identifier that ``node`` reads, as a name or as an attribute."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
    return names


def callerless(trees: dict, exported: set) -> list[str]:
    """The public definitions that no code of ``trees`` reads outside their own
    body (so recursion does not count) and that ``exported`` does not name."""
    everywhere: dict[str, int] = {}
    for tree in trees.values():
        for name in referenced_names(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        for qualname, node in public_definitions(tree):
            own = referenced_names(node).count(node.name)
            if node.name not in exported and everywhere.get(node.name, 0) == own:
                found.append(f"{module}.{qualname}")
    return found


def test_every_public_function_has_a_caller_or_is_exported():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert callerless(trees, set(sgclass.__all__)) == []


def test_the_guard_sees_a_function_without_a_caller():
    source = ("def helper():\n    return helper()\n\n"
              "def used():\n    return 1\n\n"
              "def exported():\n    return 2\n\n"
              "class K:\n    def method(self):\n        return 3\n\n"
              "    def _private(self):\n        return 4\n\n"
              "x = used()\n")
    trees = {"m": ast.parse(source)}
    assert callerless(trees, {"exported"}) == ["m.helper", "m.K.method"]
