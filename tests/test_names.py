"""The public names, and the names the benchmark's tracer wraps, resolve;
every definition in the package is named somewhere, and every module
constant is read somewhere."""

import ast
import importlib
import re
from pathlib import Path

import khcluster

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "khcluster"


def _traced_names():
    """The TRACED tuple of the tracer, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED not found in the tracer")


def test_every_public_name_resolves():
    missing = [name for name in khcluster.__all__ if not hasattr(khcluster, name)]
    assert not missing
    assert len(set(khcluster.__all__)) == len(khcluster.__all__)


def test_every_traced_name_resolves():
    traced = _traced_names()
    assert ("kh_engine", "correct_tuples") in traced
    missing = []
    for module, attr in traced:
        owner = importlib.import_module(f"khcluster.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing


def _docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first.value


def _referenced_names(tree) -> set[str]:
    """Identifiers used as names, attributes or imports, and the words of
    string constants other than docstrings (the tracer and monkeypatch name
    functions in strings). A def's own name is not a use of it."""
    docs = {id(node) for node in _docstrings(tree)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            names.update(re.findall(r"\w+", node.value))
    return names


def _sources():
    """The parsed Python files of src/, tests/, perfbench/ and tools/."""
    for folder in ("src", "tests", "perfbench", "tools"):
        for path in (ROOT / folder).rglob("*.py"):
            yield ast.parse(path.read_text(encoding="utf-8"))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_named_somewhere():
    """A function, method or class of the package that no code names in
    src/, tests/, perfbench/ or tools/ is dead and should be deleted."""
    used = set()
    for tree in _sources():
        used |= _referenced_names(tree)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not _is_dunder(node.name) and node.name not in used):
                dead.append(f"{path.stem}.{node.name}")
    assert not dead


def test_every_module_constant_is_read():
    """A module-level constant of the package that no code in src/, tests/,
    perfbench/ or tools/ reads, as a name or an attribute, is a setting
    that changes nothing. Its own assignment, an import and a mention in a
    string are not reads."""
    read = set()
    for tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    constants, unread = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Name) and not _is_dunder(t.id):
                    constants.append(t.id)
                    if t.id not in read:
                        unread.append(f"{path.stem}.{t.id}")
    assert "STACK_BUDGET" in constants  # the scan finds the constants
    assert not unread
