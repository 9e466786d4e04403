"""The public names, and the names the benchmark's tracer wraps, resolve."""

import ast
import importlib
from pathlib import Path

import khcluster

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
