"""No dead or test-only code in the package: every top-level function or
class is named somewhere in ``src/loctower`` outside its own definition, or
is exported by ``__init__``, and every module-level import is used.  Helpers
only the tests need live in ``tests/conftest.py``.  Re-importing the package
releases the old copy, and text reaches ``int()`` only through the one
integer reader.  The command line leaves length budgets to the functions
that build the words, and no module reports through ``warnings``."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import loctower

PACKAGE = Path(loctower.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
SCRIPTS = sorted((PACKAGE.parents[1] / "scripts").glob("*.py"))
# the package's modules and the scripts, the scripts keyed by file name
ALL_TREES = dict(TREES, **{p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SCRIPTS})


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
    exported = {
        alias.name
        for node in TREES["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    everywhere = sum(map(_referenced, TREES.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in exported
        and everywhere[node.name] == _referenced(node)[node.name]
    ]
    assert unused == []


def test_every_import_is_used():
    """``__init__`` imports in order to export, and ``__future__`` imports
    set compiler flags; every other module-level import must be read."""
    unused = []
    for module, tree in TREES.items():
        if module == "__init__":
            continue
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{module}.{name}")
    assert unused == []


def test_no_assert_statements():
    """``python -O`` strips ``assert``; the package's and the scripts'
    self-checks raise ``AssertionError`` explicitly instead, so they hold
    in every mode."""
    assert SCRIPTS
    found = [
        f"{module}:{node.lineno}"
        for module, tree in ALL_TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_reimport_releases_the_old_classes():
    """Nothing global (such as typing's cache of ``Union`` aliases) may
    hold on to a class of a copy of the package that was dropped."""
    script = """
import gc, sys, weakref
import loctower
old = weakref.ref(loctower.Word)
for name in [m for m in sys.modules if m == "loctower" or m.startswith("loctower.")]:
    del sys.modules[name]
del loctower
import loctower
gc.collect()
assert loctower.Word is not None
print("released" if old() is None else "alive")
"""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "released"


def test_no_unicode_digit_predicates():
    """``str.isdigit`` and its relatives accept digits such as '²' and
    '١', which ``int()`` refuses or reads as ASCII; text is parsed with
    explicit ASCII digit sets instead."""
    found = [
        f"{module}:{node.lineno} .{node.func.attr}()"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("isdigit", "isdecimal", "isnumeric")
    ]
    assert found == []


# the functions that call int(...): the one reader of integers in text,
# and smith_normal_form's coercion of matrix entries and booleans
INT_CALLERS = {
    ("words", "_integer"),
    ("presentations", "smith_normal_form"),
}


def test_int_callers_are_pinned():
    """``int()`` also accepts '+3', '3_000', '٣' and surrounding blanks,
    and refuses more than 4,300 digits with a message of its own; text is
    read by ``words._integer`` instead, so a new caller of ``int()`` needs
    an edit here."""
    callers = set()

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int":
            callers.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for module, tree in TREES.items():
        visit(tree, module, "<module>")
    assert callers == INT_CALLERS


# the functions in the package and the scripts that raise AssertionError,
# each on a result that only a fault in the code can break
SELF_CHECKS = {
    # the returned witness is the answer: it must expand back to the word
    ("stallings", "express"),
    # the root of w is checked against the root of its image under phi
    ("tower", "root_transfer"),
    # cross-check mode exists to compare the levels it searched
    ("tower", "has_p_root_in_H"),
    # the survey's experiment is that the two modes agree
    ("root_survey.py", "main"),
}


def test_self_checks_are_pinned():
    """A self-check costs time on every call and guards only against a
    fault in the code, so a new one needs an edit here, with its reason;
    in the package, each message names its layer first."""
    found = {}  # (module, function): the literal head of each message

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "AssertionError"
        ):
            head = node.exc.args[0] if node.exc.args else None
            if isinstance(head, ast.JoinedStr):
                head = head.values[0]
            text = head.value if isinstance(head, ast.Constant) else ""
            found.setdefault((module, owner), []).append(text)
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for module, tree in ALL_TREES.items():
        visit(tree, module, "<module>")
    assert set(found) == SELF_CHECKS
    unnamed = [
        (module, owner, text)
        for (module, owner), texts in found.items()
        if module in TREES
        for text in texts
        if not text.startswith(f"{module}: ")
    ]
    assert unnamed == []


def test_integer_options_use_the_integer_reader():
    """``add_argument(..., type=int)`` reads '+3', '3_000' and '٣' through
    ``int()``; the package's and the scripts' options go through
    ``cli._integer_option`` instead."""
    found = [
        f"{module}:{node.lineno}"
        for module, tree in ALL_TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for k in node.keywords
        if k.arg == "type" and isinstance(k.value, ast.Name) and k.value.id == "int"
    ]
    assert SCRIPTS and found == []


def test_no_module_imports_warnings():
    """Results, a rebase by ``adjoin_root`` included, are returned as
    values; nothing reports through the global warnings machinery."""
    found = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "warnings" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "warnings")
    ]
    assert found == []


def test_cli_leaves_length_budgets_to_the_library():
    """Each library function that builds long words checks ``max_length``
    itself; the command line passes the budget on and works out no length."""
    assert not {"_check_length", "_check_promotion"} & set(_referenced(TREES["cli"]))
