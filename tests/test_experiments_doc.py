"""EXPERIMENTS.md quotes each paper bench as its committed payload renders.

A block marked ``<!-- BENCH_<bench>.json -->`` is that bench's ``render``
of the results in the committed file, line for line, trailing spaces
aside.  Nothing runs: the payloads themselves are held to a fresh run by
``tests/test_bench_artifacts.py``.
"""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

from repro.cli import BENCH_EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"<!-- (BENCH_\w+\.json) -->\n```\n(.*?)\n```", re.S)
QUOTED = BLOCK.findall((ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8"))
PAPER_BENCHES = ("table1", "table2", "table3", "figure3", "spec", "memusage", "updatetime", "ablations")


def test_every_paper_bench_is_quoted_once():
    assert sorted(name for name, _ in QUOTED) == sorted(f"BENCH_{b}.json" for b in PAPER_BENCHES)


@pytest.mark.parametrize("bench", PAPER_BENCHES)
def test_block_is_the_committed_payload_rendered(bench):
    envelope = json.loads((ROOT / f"BENCH_{bench}.json").read_text())
    module = importlib.import_module(f"repro.bench.{BENCH_EXPERIMENTS[bench][0]}")
    rendered = [line.rstrip() for line in module.render(envelope["results"]).splitlines()]
    assert dict(QUOTED)[f"BENCH_{bench}.json"].splitlines() == rendered
