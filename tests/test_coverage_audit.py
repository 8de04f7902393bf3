"""tools/coverage_audit.py: what its product suite runs and how it judges.

The audit itself takes minutes under tracing, so these tests check its
parts: the command list ``default_suite`` builds, the ``KEPT`` table
against the source it names, and ``report`` on hand-made trace dumps.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "coverage_audit.py"


def _load():
    spec = importlib.util.spec_from_file_location("coverage_audit", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


audit = _load()


def _verbs():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    return sorted(subparsers.choices)


def _all_functions():
    """``{key: (path, first line, node)}`` of every def under src/repro."""
    found = {}
    for folder, _, files in os.walk(audit.PACKAGE):
        for file in files:
            if not file.endswith(".py"):
                continue
            path = os.path.join(folder, file)
            rel = os.path.relpath(path, audit.PACKAGE)
            tree = ast.parse(Path(path).read_text(encoding="utf-8"), path)
            for qualname, node in audit._functions(tree):
                found[f"{rel}:{qualname}"] = (path, audit._first_line(node), node)
    return found


FUNCTIONS = _all_functions()


@pytest.fixture
def suite(tmp_path):
    return audit.default_suite(str(tmp_path))


def _repro_args(suite):
    """The argv after ``-m repro`` of each CLI command in the suite."""
    return [command[3:] for command, _ in suite if command[1:3] == ["-m", "repro"]]


class TestProductSuite:
    def test_no_tier1_entry(self, suite):
        pytest_runs = [command for command, _ in suite if command[1:3] == ["-m", "pytest"]]
        # Only ``benchmarks/`` runs under pytest; never ``tests/``.
        assert [command[-1] for command in pytest_runs] == ["benchmarks"]

    def test_fuzz_runs_full_size(self, suite):
        (fuzz,) = [args for args in _repro_args(suite) if args[:2] == ["bench", "fuzz"]]
        assert "--smoke" not in fuzz

    @pytest.mark.parametrize("verb", _verbs())
    def test_every_cli_verb_is_run(self, suite, verb):
        assert any(args[0] == verb for args in _repro_args(suite))

    def test_restore_reads_the_image_checkpoint_wrote(self, suite):
        runs = _repro_args(suite)
        (write,) = [i for i, args in enumerate(runs) if args[0] == "checkpoint"]
        (read,) = [i for i, args in enumerate(runs) if args[0] == "restore"]
        # Two commands, so two processes; the writer runs first.
        assert write < read
        image = runs[write][runs[write].index("--out") + 1]
        assert runs[read][1] == image
        assert "--serve" in runs[read]

    def test_replay_exports(self, suite):
        (replay,) = [args for args in _repro_args(suite) if args[0] == "replay"]
        assert "--to-failure" in replay and "--export" in replay
        assert os.path.exists(replay[1])

    def test_benches_run_in_scratch(self, suite, tmp_path):
        # The committed BENCH_*.json files at the root are never rewritten.
        for command, cwd in suite:
            if command[1:4] == ["-m", "repro", "bench"]:
                assert cwd == str(tmp_path)

    def test_every_example_is_run(self, suite):
        examples = sorted((Path(audit.ROOT) / "examples").glob("*.py"))
        run = {command[1] for command, _ in suite if len(command) == 2}
        assert examples and {str(p) for p in examples} <= run

    def test_no_pytest_plugin(self):
        # The audit traces subprocesses only; it installs no pytest hooks.
        assert not hasattr(audit, "pytest_configure")


class TestKept:
    def test_every_entry_names_a_function(self):
        missing = sorted(key for key in audit.KEPT if key not in FUNCTIONS)
        assert missing == []

    def test_every_reason_is_of_a_stated_kind(self):
        for key, reason in audit.KEPT.items():
            assert reason.startswith(("(d) item 2 cell: ", "(s) ")) or reason == audit._ACCESSOR, key

    def test_accessors_are_at_most_three_lines(self):
        for key, reason in audit.KEPT.items():
            if reason == audit._ACCESSOR:
                node = FUNCTIONS[key][2]
                assert node.end_lineno - node.lineno + 1 <= 3, key


def _dump(data: Path, ran_keys, intact=True):
    data.mkdir(exist_ok=True)
    functions = sorted({FUNCTIONS[key][:2] for key in ran_keys})
    (data / f"{len(list(data.iterdir()))}.json").write_text(
        json.dumps({"functions": functions, "lines": [], "intact": intact})
    )


def _everything_but_kept():
    return [key for key in FUNCTIONS if key not in audit.KEPT]


class TestReport:
    def test_every_function_ran_or_kept_passes(self, tmp_path, capsys):
        _dump(tmp_path / "data", _everything_but_kept())
        assert audit.report(str(tmp_path / "data"), lines=False) == 0
        assert "unexplained (0)" in capsys.readouterr().out

    def test_dumps_of_several_processes_are_merged(self, tmp_path):
        keys = _everything_but_kept()
        half = len(keys) // 2
        _dump(tmp_path / "data", keys[:half])
        _dump(tmp_path / "data", keys[half:])
        assert audit.report(str(tmp_path / "data"), lines=False) == 0

    def test_unexplained_function_fails_and_is_named(self, tmp_path, capsys):
        skipped = "mcr/ctl.py:McrCtl.status"
        _dump(tmp_path / "data", [k for k in _everything_but_kept() if k != skipped])
        assert audit.report(str(tmp_path / "data"), lines=False) == 1
        out = capsys.readouterr().out
        assert "unexplained (1)" in out and "McrCtl.status" in out

    def test_kept_function_that_ran_is_stale(self, tmp_path, capsys):
        stale = "mcr/diagnostics.py:explain_conflict"
        _dump(tmp_path / "data", _everything_but_kept() + [stale])
        assert audit.report(str(tmp_path / "data"), lines=False) == 1
        assert f"no longer exist (1):\n  {stale}" in capsys.readouterr().out

    def test_lost_trace_function_fails(self, tmp_path, capsys):
        _dump(tmp_path / "data", _everything_but_kept(), intact=False)
        assert audit.report(str(tmp_path / "data"), lines=False) == 1
        assert "lost the trace function" in capsys.readouterr().out

    def test_unrun_repr_is_counted_not_listed(self, tmp_path, capsys):
        reprs = [k for k in FUNCTIONS if k.endswith("." + audit.REPR)]
        assert reprs
        _dump(tmp_path / "data", [k for k in _everything_but_kept() if k not in reprs])
        assert audit.report(str(tmp_path / "data"), lines=False) == 0
        assert "unexplained (0)" in capsys.readouterr().out


class TestHook:
    def test_start_without_env_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv(audit.ENV_OUT, raising=False)
        before = sys.gettrace()
        audit.start()
        assert sys.gettrace() is before
