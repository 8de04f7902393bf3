"""``src/repro``'s packages sit in one order, and every import points down.

A static AST scan.  A *unit* is a subpackage of ``repro`` (``mcr``,
``kernel``, ...) or a top-level module (``clock``, ``scenario``, ...);
``repro/__init__.py`` is the ``repro`` facade unit.  ``LAYERS`` lists the
units lowest first; units that share a tier are peers and import none of
each other.  Every import counts: module-level, function-local and
``TYPE_CHECKING`` ones, relative ones, and ``from repro import x``, which
names unit ``x`` when ``x`` is a subpackage or module and the facade
otherwise.  An import from a unit to one in the same or a higher tier
fails the test, with its file, line and both units.  There is no
exception table: code that needs an upward import moves to the layer
that owns it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

# Lowest first.  mem -> kernel -> runtime is the simulated machine and the
# program loaded on it; replay's rng/trace leaves sit under mcr, which
# holds the update machinery and its in-process half (libmcr); clients
# (workloads) sit under the servers that name them in the catalog; the
# checkpoint and fleet planes restore and multiplex servers' nodes; the
# re-executable scenario, its replayer, the benches and the CLI drive all
# of it.  The CLI uses the public facade; ``python -m repro`` uses the CLI.
LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("clock", "errors", "types"),
    ("obs",),
    ("mem",),
    ("kernel",),
    ("runtime",),
    ("replay",),
    ("mcr",),
    ("workloads",),
    ("servers",),
    ("checkpoint",),
    ("fleet",),
    ("scenario",),
    ("replayer",),
    ("bench",),
    ("repro",),
    ("cli",),
    ("__main__",),
)
TIER: Dict[str, int] = {unit: tier for tier, units in enumerate(LAYERS) for unit in units}


def _unit(module: str) -> str:
    """The unit of a dotted module name under ``repro``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def _is_module(package: Path, name: str) -> bool:
    return (package / name).is_dir() or (package / f"{name}.py").is_file()


def _imports(package: Path, path: Path) -> Iterator[Tuple[int, str]]:
    """``(line, unit)`` for every import of ``repro`` code in ``path``."""
    parts = list(path.relative_to(package.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    else:
        parts[-1:] = []  # the package a relative import starts from
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            if base == "repro":
                targets = [
                    f"repro.{alias.name}" if _is_module(package, alias.name) else "repro"
                    for alias in node.names
                ]
            else:
                targets = [base]
        else:
            continue
        for target in targets:
            if target == "repro" or target.startswith("repro."):
                yield node.lineno, _unit(target)


def upward_imports(package: Path) -> List[str]:
    """Every import in ``package`` that does not point to a lower tier."""
    problems = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package)
        source = "repro" if rel.as_posix() == "__init__.py" else rel.parts[0].removesuffix(".py")
        if source not in TIER:
            problems.append(f"{rel}: unit {source!r} is not in LAYERS")
            continue
        for line, target in _imports(package, path):
            if target not in TIER:
                problems.append(f"{rel}:{line}: imports unit {target!r}, which is not in LAYERS")
            elif target != source and TIER[target] >= TIER[source]:
                problems.append(
                    f"{rel}:{line}: {source} (tier {TIER[source]}) imports "
                    f"{target} (tier {TIER[target]})"
                )
    return problems


def test_every_import_points_down_the_layers():
    problems = upward_imports(PACKAGE)
    assert not problems, "imports that break the layer order:\n" + "\n".join(problems)


def test_every_unit_is_placed_once():
    placed = [unit for units in LAYERS for unit in units]
    assert len(placed) == len(set(placed))
    on_disk = {
        "repro" if path.name == "__init__.py" else path.name.removesuffix(".py")
        for path in PACKAGE.iterdir()
        if path.suffix == ".py" or (path / "__init__.py").is_file()
    }
    assert on_disk == set(placed)


def test_the_scan_sees_every_import_form(tmp_path):
    package = tmp_path / "repro"
    (package / "mem").mkdir(parents=True)
    (package / "obs").mkdir()
    (package / "__init__.py").write_text("")
    (package / "obs" / "__init__.py").write_text("")
    (package / "mem" / "__init__.py").write_text("from . import tags\n")
    (package / "mem" / "tags.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "from repro import obs\n"
        "from repro import boot\n"
        "if TYPE_CHECKING:\n"
        "    from repro.kernel.process import Process\n"
        "def f():\n"
        "    import repro.fleet.node\n"
        "    from ..cli import main\n"
    )
    found = sorted(_imports(package, package / "mem" / "tags.py"))
    assert found == [(2, "obs"), (3, "repro"), (5, "kernel"), (7, "fleet"), (8, "cli")]
    assert list(_imports(package, package / "mem" / "__init__.py")) == [(1, "mem")]
