"""Every attribute ``src/repro`` stores is read somewhere, or kept for a reason.

A static AST scan.  An attribute counts as *stored* where ``src/repro``
assigns it (``x.name = ...``, ``x.name += ...``, ``x.name: T = ...``) and
as *read* where any module under ``src/``, ``tests/``, ``perfbench/``,
``examples/`` or ``tools/`` loads it: an attribute load,
or a ``getattr`` / ``hasattr`` with a constant name.  ``x.name += 1`` alone
is a store: a counter nothing reads is write-only.  Attributes match by
name, not by class.  Dataclass and NamedTuple fields count as read, since
``to_dict`` and ``_asdict`` reflect over them.

The audit fails when a stored attribute is read nowhere and has no
``KEPT`` row, and when a ``KEPT`` row is stale: its attribute is read, or
no longer stored.  Deleting the field, reading it, or keeping it with a
reason clears it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
READERS = ("src", "tests", "perfbench", "examples", "tools")

# Stored under src/repro, read nowhere in the repo, and kept on purpose.
_HANDLER_CONTEXT = (
    "object-handler context (paper section 6): what a user MCR_ADD_OBJ_HANDLER "
    "may read; no handler in this repo's servers needs it"
)
KEPT: Dict[str, str] = {
    name: _HANDLER_CONTEXT
    for name in ("old_value", "translate_pointer", "old_type", "new_type", "old_proc", "new_proc")
}


def _name(node: ast.AST):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_record(cls: ast.ClassDef) -> bool:
    """A ``@dataclass`` or a ``NamedTuple`` subclass."""
    decorators = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return any(_name(d) == "dataclass" for d in decorators) or any(
        _name(base) == "NamedTuple" for base in cls.bases
    )


def _scan(source: str) -> Tuple[Dict[str, List[int]], Set[str]]:
    """``(stored attribute -> lines, read names)`` of one module."""
    stored: Dict[str, List[int]] = {}
    read: Set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Store):
                stored.setdefault(node.attr, []).append(node.lineno)
            elif isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        elif isinstance(node, ast.Call):
            args = node.args
            if (
                _name(node.func) in ("getattr", "hasattr")
                and len(args) > 1
                and isinstance(args[1], ast.Constant)
            ):
                read.add(args[1].value)
        elif isinstance(node, ast.ClassDef) and _is_record(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    read.add(item.target.id)
    return stored, read


def audit(
    package: Path, readers: Iterable[Path], kept: Mapping[str, str]
) -> Tuple[Dict[str, List[str]], List[str]]:
    """``(unread, stale)``: each attribute stored under ``package`` that no
    module under ``package`` or ``readers`` reads, with where it is stored;
    and the ``kept`` names that are read or no longer stored."""
    stored: Dict[str, List[str]] = {}
    read: Set[str] = set()
    for path in sorted(package.rglob("*.py")):
        stores, loads = _scan(path.read_text(encoding="utf-8"))
        read |= loads
        for name, lines in stores.items():
            where = path.relative_to(package.parent)
            stored.setdefault(name, []).extend(f"{where}:{line}" for line in lines)
    open_names = sorted(set(stored) - read)
    if open_names:
        # Only a module that names an unread attribute after a dot, in
        # quotes or as a class-body field can read it; only those are parsed.
        names = "|".join(map(re.escape, open_names))
        mentions = re.compile(rf"(?:\.\s*|['\"])(?:{names})\b|^\s*(?:{names})\s*:", re.M)
        for root in readers:
            for path in sorted(root.rglob("*.py")):
                if path.is_relative_to(package):
                    continue
                text = path.read_text(encoding="utf-8")
                if mentions.search(text):
                    read |= _scan(text)[1]
    unread = {
        name: where for name, where in sorted(stored.items())
        if name not in read and name not in kept
    }
    stale = sorted(name for name in kept if name in read or name not in stored)
    return unread, stale


def test_no_src_attribute_is_write_only():
    unread, stale = audit(PACKAGE, [ROOT / top for top in READERS], KEPT)
    assert unread == {}, "written, never read: delete it, or add a KEPT row with a reason"
    assert stale == [], "stale KEPT rows: the attribute is read or gone"


# -- the audit on synthetic modules --------------------------------------------


def _tree(tmp_path: Path, files: Mapping[str, str]) -> Tuple[Path, List[Path]]:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path / "src" / "pkg", [tmp_path / "src", tmp_path / "tests"]


def test_a_stored_never_loaded_field_is_flagged(tmp_path):
    package, readers = _tree(tmp_path, {
        "src/pkg/a.py": (
            "class A:\n"
            "    def __init__(self):\n"
            "        self.used = 0\n"
            "        self.ghost = 0\n"
            "        self.hits = 0\n"
            "    def bump(self):\n"
            "        self.hits += 1\n"
            "        return self.used\n"
        ),
        "tests/test_a.py": "def test(a):\n    a.ghost = 1\n",
    })
    unread, stale = audit(package, readers, {})
    assert unread == {"ghost": ["pkg/a.py:4"], "hits": ["pkg/a.py:5", "pkg/a.py:7"]}
    assert stale == []


def test_a_field_loaded_only_in_tests_or_by_getattr_counts_as_read(tmp_path):
    package, readers = _tree(tmp_path, {
        "src/pkg/a.py": (
            "def make(obj):\n"
            "    obj.seen_by_test = 1\n"
            "    obj.probed = 2\n"
            "    return getattr(obj, 'probed', None)\n"
        ),
        "tests/test_a.py": "def test(obj):\n    assert obj.seen_by_test == 1\n",
    })
    assert audit(package, readers, {}) == ({}, [])


def test_dataclass_and_namedtuple_fields_are_exempt(tmp_path):
    package, readers = _tree(tmp_path, {
        "src/pkg/a.py": (
            "from dataclasses import dataclass\n"
            "from typing import NamedTuple\n"
            "@dataclass\n"
            "class Row:\n"
            "    hits: int = 0\n"
            "class Pair(NamedTuple):\n"
            "    left: int\n"
            "def bump(row, other):\n"
            "    row.hits += 1\n"
            "    other.left = 3\n"
        ),
    })
    assert audit(package, readers, {}) == ({}, [])


def test_a_stale_kept_row_fails(tmp_path):
    package, readers = _tree(tmp_path, {
        "src/pkg/a.py": (
            "def make(obj):\n"
            "    obj.kept_unread = 1\n"
            "    obj.now_read = 2\n"
            "    return obj.now_read\n"
        ),
    })
    kept = {"kept_unread": "why", "now_read": "why", "deleted": "why"}
    assert audit(package, readers, kept) == ({}, ["deleted", "now_read"])
