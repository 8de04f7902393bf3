"""docs/cost_model.md names every constant that charges virtual time."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "cost_model.md"
NS_NAME = re.compile(r"[A-Z][A-Z0-9_]*_NS")


def _ns_names(node: ast.AST) -> set:
    found = set()
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
        if isinstance(name, str) and NS_NAME.fullmatch(name):
            found.add(name)
    return found


def _charged(tree: ast.AST) -> set:
    """``*_NS`` names in a ``clock.advance(...)`` argument, on the right of
    a ``now_ns +=``, or in a ``sync_clock(node, deadline)`` deadline."""
    charged = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "advance":
                charged |= set().union(*map(_ns_names, node.args))
            elif name == "sync_clock":
                charged |= set().union(*map(_ns_names, node.args[1:]))
        elif (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and getattr(node.target, "attr", None) == "now_ns"
        ):
            charged |= _ns_names(node.value)
    return charged


def test_the_cost_doc_names_every_charged_constant_and_no_other():
    charged, defined = set(), set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        charged |= _charged(tree)
        defined |= _ns_names(tree)
    doc = DOC.read_text()
    documented = set(re.findall(r"`(?:[\w/.]+::)?(" + NS_NAME.pattern + r")\b", doc))
    assert charged, "the collector found no charge"
    assert sorted(name for name in charged if not re.search(rf"\b{name}\b", doc)) == []
    assert sorted(documented - defined) == []
