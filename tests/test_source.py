"""No dead or test-only code in the package: every top-level function or
class is named somewhere in ``src/loctower`` outside its own definition, or
is exported by ``__init__``.  Helpers only the tests need live in
``tests/conftest.py``."""

import ast
from collections import Counter
from pathlib import Path

import loctower


def _referenced(node) -> Counter:
    """How often each name is read, as a variable or an attribute."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def test_every_definition_is_used_or_exported():
    package = Path(loctower.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    exported = {
        alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    everywhere = sum(map(_referenced, trees.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in exported
        and everywhere[node.name] == _referenced(node)[node.name]
    ]
    assert unused == []
