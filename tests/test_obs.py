"""Tests for the observability spine (``repro.obs``).

Covers the recording surfaces in isolation (spans, counters, events),
the controller's span-derived timing breakdown on commit *and* rollback,
determinism of the exports (two identical runs must produce byte-for-byte
identical JSON), and the ``trace`` CLI command.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.clock import VirtualClock
from repro.kernel import Kernel
from repro.mcr.ctl import McrCtl
from repro.obs.counters import CounterSet
from repro.obs.events import EventLog
from repro.obs.export import chrome_trace, to_json
from repro.obs.spans import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OPEN,
    SpanRecorder,
    render_tree,
)
from repro.servers import simple
from repro.servers.catalog import boot
from tests.helpers import collector_to_dict


def _find(root, name):
    """The first span named ``name`` in ``root``'s tree, pre-order."""
    return next((span for span in root.walk() if span.name == name), None)


def _booted_simple(kernel):
    world = boot("simple", kernel=kernel)
    return world.program, world.session


class TestSpans:
    def test_nesting_and_ordering(self):
        clock = VirtualClock()
        recorder = SpanRecorder(clock)
        root = recorder.begin("update")
        clock.advance(10)
        child_a = recorder.begin("a")
        clock.advance(5)
        recorder.end(child_a)
        child_b = recorder.begin("b")
        clock.advance(7)
        recorder.end(child_b)
        recorder.end(root)
        assert [c.name for c in root.children] == ["a", "b"]
        assert child_a.parent is root and child_b.parent is root
        assert child_a.duration_ns == 5
        assert child_b.start_ns == child_a.end_ns
        assert root.duration_ns == 22
        assert [s.name for s in root.walk()] == ["update", "a", "b"]

    def test_open_span_has_zero_duration(self):
        recorder = SpanRecorder(VirtualClock())
        span = recorder.begin("open")
        assert span.status == STATUS_OPEN
        assert span.duration_ns == 0

    def test_context_manager_marks_error_and_reraises(self):
        clock = VirtualClock()
        recorder = SpanRecorder(clock)
        root = recorder.begin("update")
        with pytest.raises(ValueError):
            with recorder.span("phase"):
                clock.advance(3)
                raise ValueError("boom")
        phase = root.children[0]
        assert phase.status == STATUS_ERROR
        assert phase.duration_ns == 3
        # The recorder stack is back at the root: new spans nest correctly.
        with recorder.span("next"):
            pass
        assert [c.name for c in root.children] == ["phase", "next"]

    def test_ending_an_outer_span_closes_inner_ones(self):
        recorder = SpanRecorder(VirtualClock())
        outer = recorder.begin("outer")
        inner = recorder.begin("inner")
        recorder.end(outer, status=STATUS_ERROR)
        assert inner.closed and outer.closed
        assert recorder.current is None

    def test_close_is_idempotent(self):
        clock = VirtualClock()
        recorder = SpanRecorder(clock)
        span = recorder.begin("s")
        clock.advance(4)
        recorder.end(span)
        span.close(999, "error")  # ignored: already closed
        assert span.duration_ns == 4 and span.status == STATUS_OK

    def test_render_tree_lines(self):
        clock = VirtualClock()
        recorder = SpanRecorder(clock)
        with recorder.span("update"):
            with recorder.span("transfer"):
                clock.advance(2_000_000)
        text = render_tree(recorder.roots[0])
        assert "update" in text and "transfer" in text and "2.00 ms" in text


class TestCounters:
    def test_incr_and_gauge(self):
        counters = CounterSet()
        counters.incr("a")
        counters.incr("a", 4)
        counters.gauge("g", 1.5)
        assert counters.get("a") == 5
        assert counters.get("g") == 1.5
        assert counters.get("missing") == 0

    def test_snapshot_is_name_sorted(self):
        counters = CounterSet()
        counters.incr("zebra")
        counters.incr("alpha")
        assert list(counters.snapshot()) == ["alpha", "zebra"]


class TestEvents:
    def test_ring_buffer_eviction(self):
        clock = VirtualClock()
        log = EventLog(clock, capacity=3)
        for i in range(5):
            log.emit(f"e{i}", index=i)
        assert log.emitted == 5
        assert log.dropped == 2
        assert [e.name for e in log] == ["e2", "e3", "e4"]

    def test_rejects_unknown_severity(self):
        log = EventLog(VirtualClock(), capacity=4)
        with pytest.raises(ValueError):
            log.emit("bad", severity="fatal")

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            EventLog(VirtualClock(), capacity=0)


class TestNoOpFastPath:
    def test_active_defaults_to_none(self):
        assert obs.ACTIVE is None

    def test_module_helpers_are_noops_without_collector(self):
        obs.incr("x")
        obs.gauge("y", 1)
        obs.emit("z")
        assert obs.ACTIVE is None

    def test_collecting_restores_previous(self):
        clock = VirtualClock()
        with obs.collecting(clock) as outer:
            assert obs.ACTIVE is outer
            with obs.collecting(clock) as inner:
                assert obs.ACTIVE is inner
            assert obs.ACTIVE is outer
        assert obs.ACTIVE is None

    def test_interleaved_scopes_restore_correctly(self):
        # Non-LIFO lifetimes: scope A opened before B but closed first
        # must not displace B from ACTIVE (the fleet plane interleaves
        # per-node activations exactly like this).
        clock = VirtualClock()
        a, b = obs.Collector(clock), obs.Collector(clock)
        scope_a = obs.scoped(a)
        scope_b = obs.scoped(b)
        scope_a.__enter__()
        scope_b.__enter__()
        assert obs.ACTIVE is b
        scope_a.__exit__(None, None, None)  # A exits while B is live
        assert obs.ACTIVE is b
        scope_b.__exit__(None, None, None)
        assert obs.ACTIVE is None

    def test_recorder_for_matches_clock(self):
        clock = VirtualClock()
        with obs.collecting(clock) as collector:
            assert obs.recorder_for(clock) is collector.spans
            other = VirtualClock()
            assert obs.recorder_for(other) is not collector.spans


class TestUpdateSpans:
    def test_committed_update_phase_sums(self, kernel):
        _program, session = _booted_simple(kernel)
        result = McrCtl(kernel, session).live_update(simple.make_program(2))
        assert result.committed
        root = result.spans
        assert root is not None and root.name == "update"
        assert root.status == STATUS_OK
        child_names = [c.name for c in root.children]
        assert child_names == [
            "quiescence",
            "offline-analysis",
            "restart",
            "control-migration",
            "restore",
            "transfer",
            "commit",
        ]
        assert result.total_ns == root.duration_ns
        assert result.phase_sum_ns() <= result.total_ns
        assert result.quiescence_ns == _find(root, "quiescence").duration_ns
        assert result.transfer_ns == _find(root, "transfer").duration_ns
        assert result.transfer_ns == result.transfer_report.total_ns
        restart = _find(root, "restart").duration_ns
        migration = _find(root, "control-migration").duration_ns
        assert result.control_migration_ns == restart + migration

    def test_rolled_back_update_populates_completed_phases(self, kernel):
        _program, session = _booted_simple(kernel)
        kernel.fs.create("/etc/simple.conf", b"9999")  # config drift
        result = McrCtl(kernel, session).live_update(simple.make_program(2))
        assert result.rolled_back
        root = result.spans
        assert root is not None
        assert root.status == "rolled_back"
        child_names = [c.name for c in root.children]
        # The replay mismatch surfaces during control migration: everything
        # up to it completed, a rollback span closed the attempt, and no
        # later phase ever opened.
        assert "rollback" in child_names
        assert "transfer" not in child_names and "commit" not in child_names
        failed = _find(root, "control-migration")
        assert failed is not None and failed.status == STATUS_ERROR
        assert _find(root, "quiescence").status == STATUS_OK
        assert result.quiescence_ns == _find(root, "quiescence").duration_ns
        assert result.quiescence_ns > 0
        assert result.transfer_ns == 0
        assert result.total_ns == root.duration_ns
        assert result.phase_sum_ns() <= result.total_ns
        # Every span in the tree is closed despite the mid-phase error.
        assert all(span.closed for span in root.walk())

    def test_update_feeds_installed_collector(self, kernel):
        _program, session = _booted_simple(kernel)
        with obs.collecting(kernel.clock) as collector:
            result = McrCtl(kernel, session).live_update(simple.make_program(2))
        assert result.committed
        assert result.spans in collector.spans.roots
        counters = collector.counters.snapshot()
        assert counters["syscall.total"] > 0
        assert counters["transfer.processes"] == 1
        assert any(e.name == "update.finished" for e in collector.events)


class TestExportDeterminism:
    @staticmethod
    def _one_run():
        kernel = Kernel()
        _program, session = _booted_simple(kernel)
        with obs.collecting(kernel.clock) as collector:
            result = McrCtl(kernel, session).live_update(simple.make_program(2))
        assert result.committed
        return collector

    def test_identical_runs_export_identical_json(self):
        first = to_json(collector_to_dict(self._one_run()))
        second = to_json(collector_to_dict(self._one_run()))
        assert first == second

    def test_identical_runs_export_identical_chrome_traces(self):
        first = to_json(chrome_trace(self._one_run()))
        second = to_json(chrome_trace(self._one_run()))
        assert first == second

    def test_chrome_trace_shape(self):
        trace = chrome_trace(self._one_run())
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases >= {"M", "X"}
        complete = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"update", "quiescence", "transfer", "commit"} <= names
        for event in complete:
            assert event["dur"] >= 0 and event["ts"] >= 0
        # Must round-trip through the JSON encoder (Perfetto compatibility).
        json.loads(to_json(trace))


class TestTraceCli:
    def test_trace_command_exports_valid_chrome_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "simple", "--export", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "committed" in out
        assert "update" in out and "transfer" in out
        assert "counters" in out
        trace = json.loads(out_file.read_text())
        span_names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {
            "update",
            "quiescence",
            "offline-analysis",
            "restart",
            "control-migration",
            "restore",
            "transfer",
            "commit",
        } <= span_names

    def test_trace_cli_runs_are_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["trace", "simple", "--export", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bench_json_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench", "table3", "--json"])
        assert args.json is True
        args = build_parser().parse_args(["bench", "table3"])
        assert args.json is False
