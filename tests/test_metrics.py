"""Tests for client-perceived metrics and the flight recorder (PR 4).

Covers the histogram/percentile machinery (including the hypothesis
property that bucket-resolved percentiles land in the same bucket as the
exact nearest-rank reference), the flight recorder's hard budgets under
floods, the blackout-interval measurement, the controller's black-box
dump on rollback, and the ``metrics`` CLI command.
"""

import json
import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.reporting import latency_summary_ms
from repro.bench.updatetime import measure_client_perceived
from repro.cli import main
from repro.clock import VirtualClock, ns_to_ms
from repro.kernel import Kernel
from repro.mcr.config import DOWNTIME_BUDGET_NS, MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan
from repro.obs.counters import CounterSet
from repro.obs.export import chrome_trace
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDARIES_NS,
    Histogram,
    MetricsRegistry,
    prometheus_text,
)
from repro.obs.recorder import FlightRecorder
from repro.servers import simple
from repro.servers.catalog import boot
from repro.workloads.ab import ApacheBench
from repro.workloads.client import ClientLatencyLog, ClientPerceived
from tests.helpers import collector_to_dict


def _booted_simple(kernel):
    world = boot("simple", kernel=kernel)
    return world.program, world.session


# -- Histogram ----------------------------------------------------------------


class TestHistogram:
    def test_observe_and_summary(self):
        h = Histogram("lat", boundaries=[10, 100, 1000])
        for value in (5, 50, 500, 5000):
            h.observe(value)
        assert h.count == 4
        assert h.sum == 5555
        assert h.min == 5 and h.max == 5000
        assert h.bucket_counts == [1, 1, 1, 1]
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["p50"] == 100  # rank 2 -> bucket (10, 100]

    def test_percentile_clamps_to_max(self):
        h = Histogram("lat", boundaries=[1000, 2000])
        h.observe(150)
        # Nearest-rank p99 is the only sample; the bucket bound (1000)
        # must clamp to the observed max.
        assert h.percentile(99) == 150

    def test_percentile_overflow_bucket(self):
        h = Histogram("lat", boundaries=[10])
        h.observe(99)
        assert h.percentile(50) == 99

    def test_percentile_zero_is_min(self):
        # p0 must be the smallest observation, not its bucket's upper
        # bound (which would overstate it by up to one bucket width).
        h = Histogram("lat", boundaries=[10, 100, 1000])
        for value in (7, 50, 500):
            h.observe(value)
        assert h.percentile(0) == 7

    def test_percentile_hundred_is_max(self):
        h = Histogram("lat", boundaries=[10, 100, 1000])
        for value in (7, 50, 99):
            h.observe(value)
        assert h.percentile(100) == 99

    def test_percentile_extremes_single_sample(self):
        h = Histogram("lat", boundaries=[1000])
        h.observe(42)
        assert h.percentile(0) == 42
        assert h.percentile(100) == 42

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.percentile(0) == 0
        assert h.percentile(99) == 0
        assert h.percentile(100) == 0
        assert h.summary()["max"] == 0

    def test_percentile_range_validation(self):
        h = Histogram("lat")
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_boundary_validation(self):
        with pytest.raises(ValueError):
            Histogram("bad", boundaries=[])
        with pytest.raises(ValueError):
            Histogram("bad", boundaries=[10, 10])

    def test_summary_ms_requires_ns_unit(self):
        h = Histogram("ops", boundaries=[1, 2], unit="ops")
        with pytest.raises(ValueError):
            h.summary_ms()

    def test_summary_ms_conversion(self):
        h = Histogram.from_values("lat", [2_000_000])
        summary = h.summary_ms()
        assert summary["max_ms"] == pytest.approx(2.0)
        assert summary["p50_ms"] == pytest.approx(2.0)

    @given(
        values=st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=200),
        q=st.sampled_from([1, 25, 50, 75, 90, 95, 99, 100]),
    )
    @settings(max_examples=200, deadline=None)
    def test_percentile_within_one_bucket_of_exact(self, values, q):
        """Bucket-resolved percentile lands in the exact value's bucket.

        The returned value is the bucket upper bound clamped to max, so it
        is >= the exact nearest-rank percentile and ``bisect_left`` over
        the boundaries maps both to the same bucket index.
        """
        h = Histogram.from_values("lat", values)
        exact = sorted(values)[max(1, math.ceil(q / 100.0 * len(values))) - 1]
        resolved = h.percentile(q)
        assert resolved >= exact
        bounds = h.boundaries
        assert bisect_left(bounds, resolved) == bisect_left(bounds, exact)

class TestMetricsRegistry:
    def test_observe_get_or_create(self):
        registry = MetricsRegistry()
        registry.observe("client.latency_ns", 5_000)
        registry.observe("client.latency_ns", 9_000)
        assert registry.get("client.latency_ns").count == 2
        assert "client.latency_ns" in registry
        assert len(registry) == 1

    def test_names_sorted_and_snapshot(self):
        registry = MetricsRegistry()
        registry.observe("zeta", 1)
        registry.observe("alpha", 2)
        assert registry.names() == ["alpha", "zeta"]
        snap = registry.snapshot()
        assert list(snap) == ["alpha", "zeta"]
        assert snap["alpha"]["count"] == 1

class TestPrometheusText:
    def test_counters_and_histograms(self):
        counters = CounterSet()
        counters.incr("sys.read", 4)
        registry = MetricsRegistry()
        registry.observe("client.latency_ns", 1_500, boundaries=[1_000, 2_000])
        registry.observe("client.latency_ns", 500, boundaries=[1_000, 2_000])
        text = prometheus_text(counters=counters, metrics=registry)
        assert "# TYPE repro_sys_read gauge\nrepro_sys_read 4" in text
        assert "# TYPE repro_client_latency_ns histogram" in text
        assert 'repro_client_latency_ns_bucket{le="1000"} 1' in text
        assert 'repro_client_latency_ns_bucket{le="2000"} 2' in text
        assert 'repro_client_latency_ns_bucket{le="+Inf"} 2' in text
        assert "repro_client_latency_ns_sum 2000" in text
        assert "repro_client_latency_ns_count 2" in text
        assert text.endswith("\n")

    def test_deterministic(self):
        registry = MetricsRegistry()
        registry.observe("b.metric", 10)
        registry.observe("a.metric", 20)
        assert prometheus_text(metrics=registry) == prometheus_text(metrics=registry)


# -- FlightRecorder ------------------------------------------------------------


class TestFlightRecorder:
    def test_budget_validation(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            FlightRecorder(clock, max_entries=0)
        with pytest.raises(ValueError):
            FlightRecorder(clock, max_bytes=0)
        with pytest.raises(ValueError):
            FlightRecorder(clock, sample_interval_steps=0)

    def test_entry_budget_evicts_oldest(self):
        clock = VirtualClock()
        recorder = FlightRecorder(clock, max_entries=3)
        for index in range(5):
            recorder.record("event", f"e{index}", {})
        names = [entry.name for entry in recorder.entries()]
        assert names == ["e2", "e3", "e4"]
        assert recorder.dropped == 2
        assert recorder.recorded == 5

    def test_oversized_entry_dropped_outright(self):
        clock = VirtualClock()
        recorder = FlightRecorder(clock, max_bytes=64)
        recorder.record("event", "ok", {})
        recorder.record("event", "huge", {"blob": "x" * 1000})
        assert [entry.name for entry in recorder.entries()] == ["ok"]
        assert recorder.dropped == 1

    @given(
        payload_sizes=st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=300),
        max_entries=st.integers(min_value=1, max_value=64),
        max_bytes=st.integers(min_value=32, max_value=4_096),
    )
    @settings(max_examples=100, deadline=None)
    def test_budgets_never_exceeded_under_flood(
        self, payload_sizes, max_entries, max_bytes
    ):
        clock = VirtualClock()
        recorder = FlightRecorder(
            clock, max_entries=max_entries, max_bytes=max_bytes
        )
        for size in payload_sizes:
            recorder.record("event", "flood", {"data": "y" * size})
            assert len(recorder) <= max_entries
            assert recorder.bytes_used <= max_bytes
        assert recorder.recorded + recorder.dropped >= len(payload_sizes)
        assert recorder.bytes_used == sum(e.cost for e in recorder.entries())

    def test_last_event_and_dump(self):
        clock = VirtualClock()
        recorder = FlightRecorder(clock)
        recorder.record("event", "fault.injected", {"site": "transfer.memory"})
        clock.advance(10)
        recorder.record("sample", "gauges", {"runnable": 3})
        clock.advance(10)
        recorder.record("event", "fault.injected", {"site": "rollback"})
        last = recorder.last_event("fault.injected")
        assert last["payload"]["site"] == "rollback"
        assert recorder.last_event("nope") is None
        dump = recorder.dump(
            "rolled_back", failure_site="rollback", open_spans=["update"]
        )
        assert dump["reason"] == "rolled_back"
        assert dump["last_fault"]["payload"]["site"] == "rollback"
        assert dump["open_spans"] == ["update"]
        assert len(dump["entries"]) == 3
        # The dump must round-trip through JSON (blackbox.json contract).
        assert json.loads(json.dumps(dump)) == dump

    def test_collector_wiring_mirrors_events(self):
        clock = VirtualClock()
        collector = obs.Collector(clock)
        with obs.scoped(collector):
            obs.emit("update.finished", committed=True)
            obs.observe("client.latency_ns", 1_234)
        assert [e.name for e in collector.recorder.entries()] == ["update.finished"]
        assert collector.metrics.get("client.latency_ns").count == 1

    def test_kernel_tick_sampling(self):
        kernel = Kernel()
        _program, session = _booted_simple(kernel)
        with obs.collecting(kernel.clock) as collector:
            collector.recorder.sample_interval_steps = 64
            ApacheBench(8080, requests=20, concurrency=2, path="sum").run(kernel)
        samples = [e for e in collector.recorder.entries() if e.kind == "sample"]
        assert collector.recorder.samples_taken > 0
        assert samples, "scheduler tick hook never sampled"
        payload = samples[-1].payload
        for key in (
            "runnable", "blocked", "processes", "fds",
            "heap_live_bytes", "heap_live_chunks", "heap_free_bytes",
            "dirty_faults",
        ):
            assert key in payload
        assert payload["processes"] > 0


class _SlottedFlightEntry:
    """A recorder entry as a slotted class with a constructor (the oracle)."""

    __slots__ = ("ts_ns", "kind", "name", "payload", "cost")

    def __init__(self, ts_ns, kind, name, payload) -> None:
        self.ts_ns = ts_ns
        self.kind = kind
        self.name = name
        self.payload = payload
        self.cost = 24 + len(kind) + len(name) + sum(
            len(str(key)) + len(str(value)) for key, value in payload.items()
        )

    def to_dict(self):
        return {
            "ts_ns": self.ts_ns,
            "kind": self.kind,
            "name": self.name,
            "payload": dict(self.payload),
        }


class _SlottedFlightRecorder(FlightRecorder):
    """``record`` building slotted entries, ``record_raw`` through it, and
    the event-log subscription hook ``on_event`` (the oracle)."""

    def record(self, kind, name, payload, ts_ns=None) -> None:
        entry = _SlottedFlightEntry(
            self.clock.now_ns if ts_ns is None else ts_ns, kind, name, payload
        )
        if entry.cost > self.max_bytes:
            # A single over-budget entry is dropped outright: storing it
            # would violate the byte bound no matter what we evict.
            self.dropped += 1
            return
        self._ring.append(entry)
        self._bytes += entry.cost
        self.recorded += 1
        while len(self._ring) > self.max_entries or self._bytes > self.max_bytes:
            evicted = self._ring.popleft()
            self._bytes -= evicted.cost
            self.dropped += 1

    def record_raw(self, ts_ns, kind, name, render, fields, width) -> None:
        """Every entry rendered and costed on append."""
        self.record(kind, name, render(*fields), ts_ns)

    def on_event(self, event) -> None:
        """EventLog subscription hook: mirror every emitted event."""
        self.record("event", event.name, event.payload, ts_ns=event.ts_ns)


_NAMES = st.sampled_from(["fault.injected", "sched.wake", "update.finished", "x", ""])
_SCALARS = st.one_of(
    st.text(max_size=12), st.integers(), st.floats(allow_nan=False), st.none(),
    st.booleans(), st.builds(lambda n: "z" * n, st.integers(min_value=500, max_value=3_000)),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
# Event payloads arrive as keyword arguments: not ``name`` / ``severity``.
_PAYLOADS = st.dictionaries(
    st.text(max_size=8).filter(lambda key: key not in ("name", "severity")), _VALUES, max_size=4
)
_STREAM = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.sampled_from(["event", "sample", "note"]), _NAMES,
                  _PAYLOADS, st.one_of(st.none(), st.integers(min_value=0, max_value=10**9))),
        st.tuples(st.just("emit"), st.booleans(), _NAMES, _PAYLOADS,
                  st.sampled_from(["debug", "info", "warn", "error"])),
        st.tuples(st.just("sample")),
        st.tuples(st.just("advance"), st.integers(min_value=0, max_value=10**6)),
    ),
    max_size=40,
)


@given(
    stream=_STREAM,
    max_entries=st.integers(min_value=1, max_value=16),
    max_bytes=st.integers(min_value=30, max_value=2_000),
)
@settings(max_examples=150, deadline=None)
def test_recorder_keeps_what_the_class_entries_kept(stream, max_entries, max_bytes):
    """Tuple entries and the direct event call against the parent bodies."""
    from repro.obs.events import BlackBoxLog, Event, EventLog

    kernel = Kernel()
    clock = kernel.clock
    _booted_simple(kernel)
    new = FlightRecorder(clock, max_entries=max_entries, max_bytes=max_bytes)
    old = _SlottedFlightRecorder(clock, max_entries=max_entries, max_bytes=max_bytes)
    full, black_box = EventLog(clock), BlackBoxLog(clock)
    full.recorder = black_box.recorder = new
    for op in stream:
        if op[0] == "record":
            _op, kind, name, payload, ts_ns = op
            new.record(kind, name, payload, ts_ns=ts_ns)
            old.record(kind, name, payload, ts_ns=ts_ns)
        elif op[0] == "emit":
            _op, through_full, name, payload, severity = op
            (full if through_full else black_box).emit(name, severity=severity, **payload)
            old.on_event(Event(clock.now_ns, severity, name, payload))
        elif op[0] == "sample":
            new.sample(kernel)
            old.sample(kernel)
        else:
            clock.advance(op[1])
    assert new.to_list() == old.to_list()
    assert (new.recorded, new.dropped, new.bytes_used) == (old.recorded, old.dropped, old.bytes_used)
    assert [e.cost for e in new.entries()] == [e.cost for e in old.entries()]
    for name in ("fault.injected", "sched.wake", "update.finished", "x", "", "gauges"):
        assert new.last_event(name) == old.last_event(name)
    assert new.dump("why", failure_site="here", open_spans=["update"]) == old.dump(
        "why", failure_site="here", open_spans=["update"]
    )


# -- raw entries that may alone exceed the byte budget (ROADMAP F1) ------------


def _text(payload):
    """What ``FlightRecorder`` costs of a payload: its keys and values."""
    return sum(len(str(key)) + len(str(value)) for key, value in payload.items())


def _raw_and_eager(stream, max_entries, max_bytes):
    """One stream of scheduler records, into a recorder through
    ``record_raw`` (each with its payload's exact width) and into another
    rendered and costed on append."""
    from repro.kernel.kernel import _block_payload, _jump_payload, _wake_payload

    renders = {"sched.block": _block_payload, "sched.wake": _wake_payload,
               "sched.clock_jump": _jump_payload}
    clock = VirtualClock()
    raw = FlightRecorder(clock, max_entries=max_entries, max_bytes=max_bytes)
    eager = FlightRecorder(clock, max_entries=max_entries, max_bytes=max_bytes)
    for ts_ns, (name, fields) in enumerate(stream):
        payload = renders[name](*fields)
        raw.record_raw(ts_ns, "event", name, renders[name], fields, _text(payload))
        eager.record("event", name, payload, ts_ns)
    return [
        (recorder.to_list(), recorder.recorded, recorder.dropped, recorder.bytes_used)
        for recorder in (raw, eager)
    ]


def test_an_oversized_raw_entry_evicts_nothing():
    """Five small ``sched.block`` entries, then one naming a 5 000-character
    process, under a 4 KiB budget: the oversized one is dropped, not
    recorded, and takes none of the five with it."""
    stream = [("sched.block", ("httpd", f"worker-{index}", "recvmsg:fd5")) for index in range(5)]
    stream.append(("sched.block", ("p" * 5_000, "main", "accept:fd3")))
    raw, eager = _raw_and_eager(stream, 512, 4_096)
    assert raw == eager
    assert (len(raw[0]), raw[1], raw[2]) == (5, 5, 1)


_NAME = st.one_of(st.text(max_size=12), st.builds(lambda n: "n" * n, st.integers(100, 3_000)))
_RECORDS = st.one_of(
    st.tuples(st.just("sched.block"), st.tuples(_NAME, _NAME, _NAME)),
    st.tuples(st.just("sched.wake"),
              st.tuples(_NAME, _NAME, _NAME, _NAME, st.integers(0, 10**30))),
    st.tuples(st.just("sched.clock_jump"), st.tuples(st.integers(0, 10**30))),
)


@given(
    stream=st.lists(_RECORDS, max_size=60),
    max_entries=st.integers(1, 16),
    max_bytes=st.integers(30, 5_000),
)
@settings(max_examples=150, deadline=None)
def test_raw_entries_keep_what_eager_entries_keep(stream, max_entries, max_bytes):
    """Streams with oversized entries: the same ring, the same counts."""
    raw, eager = _raw_and_eager(stream, max_entries, max_bytes)
    assert raw == eager


def test_the_scheduler_bounds_each_raw_payload(monkeypatch):
    """Each scheduler record's width is at least its payload's text, so
    ``record_raw`` defers only entries that fit the byte budget: an idle
    and a serving httpd, a rolling update, under a full collector."""
    from repro.bench.harness import boot_server
    from repro.mcr.config import MCRConfig
    from repro.mcr.ctl import McrCtl
    from repro.obs.events import EventLog

    slack = {}
    emit_raw = EventLog.emit_raw

    def checking(self, name, render, fields, width):
        slack.setdefault(name, set()).add(width - _text(render(*fields)))
        emit_raw(self, name, render, fields, width)

    monkeypatch.setattr(EventLog, "emit_raw", checking)
    world = boot_server("httpd")
    collector = obs.Collector(world.kernel.clock)
    with obs.scoped(collector):
        world.kernel.run(max_ns=100_000_000)
        config = MCRConfig(update_mode="rolling", rolling_batch=1)
        McrCtl(world.kernel, world.session).live_update(world.make_program(2), config=config)
    assert set(slack) == {"sched.block", "sched.wake", "sched.clock_jump"}
    assert slack["sched.block"] == slack["sched.clock_jump"] == {0}
    assert min(slack["sched.wake"]) >= 0


# -- ClientLatencyLog / ClientPerceived ---------------------------------------


class TestClientLatency:
    def test_record_and_derivations(self):
        log = ClientLatencyLog()
        log.record(100, 250)
        log.record(300, 350)
        assert log.count == 2
        assert log.latencies_ns() == [150, 50]
        assert log.completions_ns() == [250, 350]
        assert log.histogram().count == 2

    def test_record_feeds_active_collector(self):
        clock = VirtualClock()
        with obs.collecting(clock) as collector:
            log = ClientLatencyLog()
            log.record(0, 42_000)
        histogram = collector.metrics.get("client.latency_ns")
        assert histogram.count == 1
        assert histogram.max == 42_000

    def test_blackout_longest_gap(self):
        log = ClientLatencyLog()
        for recv in (100, 200, 1_200, 1_300):
            log.record(recv - 10, recv)
        assert log.blackout_ns() == 1_000

    def test_blackout_window_edges_count(self):
        log = ClientLatencyLog()
        log.record(90, 100)
        # Nothing completes between 100 and the window end at 5_000.
        assert log.blackout_ns(window=(0, 5_000)) == 4_900

    def test_blackout_clamps_completion_before_window(self):
        log = ClientLatencyLog()
        log.record(400, 500)  # completed just before the window opens
        log.record(2_990, 3_000)
        # The pre-window completion clamps onto lo and bounds the leading
        # gap there; the measured stall is lo -> 3_000, not the window span.
        assert log.blackout_ns(window=(1_000, 5_000)) == 2_000

    def test_blackout_clamps_completion_after_window(self):
        log = ClientLatencyLog()
        log.record(990, 1_000)
        log.record(5_990, 6_000)  # completed just after the window closes
        assert log.blackout_ns(window=(0, 5_000)) == 4_000

    def test_blackout_all_completions_outside_window(self):
        log = ClientLatencyLog()
        log.record(5_500, 6_000)
        log.record(6_500, 7_000)
        # Every completion clamps onto an edge; the stall is the full span.
        assert log.blackout_ns(window=(0, 5_000)) == 5_000

    def test_blackout_empty(self):
        log = ClientLatencyLog()
        assert log.blackout_ns() == 0
        assert log.blackout_ns(window=(0, 777)) == 777

    def test_merged_logs_see_what_their_clients_saw_together(self):
        first, second, empty = ClientLatencyLog(), ClientLatencyLog(), ClientLatencyLog()
        for recv in (100, 1_200):
            first.record(recv - 10, recv)
        second.record(590, 600)
        merged = ClientLatencyLog.merged([first, second, empty])
        assert merged.samples == sorted(first.samples + second.samples)
        assert merged.completions_ns() == [100, 600, 1_200]
        # Each node alone was dark for 1 100 ns; together the gap is 600.
        assert first.blackout_ns() == 1_100
        assert merged.blackout_ns() == 600
        assert merged.blackout_ns(window=(0, 2_000)) == 800
        assert ClientLatencyLog.merged([]).blackout_ns(window=(0, 9)) == 9
        assert first.samples == [(90, 100), (1_190, 1_200)]  # inputs untouched

    def test_perceived_verdict(self):
        assert DOWNTIME_BUDGET_NS == 1_000_000_000
        over = ClientLatencyLog()
        for recv in (1_000, 2_000, 1_500_000_000):
            over.record(recv - 100, recv)
        perceived = ClientPerceived.measure(over)
        assert not perceived.slo_ok  # ~1.5 s gap > 1 s budget
        assert perceived.blackout_ns == 1_499_998_000
        under = ClientLatencyLog()
        for recv in (1_000, 2_000, 900_000_000):
            under.record(recv - 100, recv)
        ok = ClientPerceived.measure(under)
        assert ok.slo_ok  # ~0.9 s gap <= 1 s budget
        payload = ok.to_dict()
        assert payload["requests"] == 3
        assert payload["slo_ok"] is True
        assert payload["blackout_ms"] == pytest.approx(ns_to_ms(899_998_000))
        assert payload["downtime_budget_ms"] == ns_to_ms(DOWNTIME_BUDGET_NS)

    def test_latency_summary_ms_helper(self):
        row = latency_summary_ms([1_000_000, 2_000_000, 3_000_000])
        assert row["client_requests"] == 3
        assert row["client_max_ms"] == pytest.approx(3.0)
        assert row["client_sum_ms"] == pytest.approx(6.0)
        assert set(row) == {
            "client_requests", "client_p50_ms", "client_p95_ms",
            "client_p99_ms", "client_max_ms", "client_sum_ms",
        }


# -- controller black box ------------------------------------------------------


class TestBlackbox:
    def _fail_update(self, tmp_path=None):
        kernel = Kernel()
        _program, session = _booted_simple(kernel)
        path = str(tmp_path / "blackbox.json") if tmp_path is not None else None
        config = MCRConfig(
            faults=FaultPlan().at("transfer.memory"), blackbox_path=path
        )
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(simple.make_program(2), config=config)
        return ctl, result

    def test_rollback_dumps_blackbox_without_collector(self):
        assert obs.ACTIVE is None
        _ctl, result = self._fail_update()
        assert result.rolled_back
        assert obs.ACTIVE is None  # private collector restored
        blackbox = result.blackbox
        assert blackbox is not None
        assert blackbox["reason"] == "rolled_back"
        assert blackbox["failure_site"] == "transfer.memory"
        assert blackbox["last_fault"]["payload"]["site"] == "transfer.memory"
        assert blackbox["open_spans"] == ["update", "rollback"]
        assert blackbox["fingerprint"]["processes"]
        assert result.blackbox_path is None

    def test_rollback_writes_blackbox_file(self, tmp_path):
        ctl, result = self._fail_update(tmp_path)
        assert result.blackbox_path == str(tmp_path / "blackbox.json")
        with open(result.blackbox_path, encoding="utf-8") as handle:
            on_disk = json.load(handle)
        assert on_disk["failure_site"] == "transfer.memory"
        assert on_disk["last_fault"]["payload"]["site"] == "transfer.memory"
        assert any(
            entry["name"] == "fault.injected" for entry in on_disk["entries"]
        )
        status = ctl.status()
        assert status["last_update"] == "rolled_back"
        assert status["last_update_blackbox"] == result.blackbox_path

    def test_unwritable_path_is_one_warn_event_never_an_exception(self, tmp_path):
        kernel = Kernel()
        _program, session = _booted_simple(kernel)
        config = MCRConfig(
            faults=FaultPlan().at("transfer.memory"),
            blackbox_path=str(tmp_path / "no-such-dir" / "blackbox.json"),
        )
        with obs.collecting(kernel.clock) as collector:
            result = McrCtl(kernel, session).live_update(
                simple.make_program(2), config=config
            )
        assert result.rolled_back and result.rollback_verified
        assert result.blackbox is not None and result.blackbox_path is None
        failures = [e for e in collector.events if e.name == "blackbox.write_failed"]
        assert len(failures) == 1 and failures[0].severity == "warn"

    def test_collector_blackbox_is_the_writer(self, tmp_path):
        collector = obs.Collector(VirtualClock())
        collector.events.emit("fault.injected", severity="warn", site="x")
        path = tmp_path / "blackbox.json"
        document, written = collector.blackbox("why", str(path), failure_site="x")
        assert written == str(path)
        assert json.loads(path.read_text()) == document
        assert document["reason"] == "why" and document["failure_site"] == "x"
        assert document["last_fault"]["payload"]["site"] == "x"
        # No path: the document only.
        assert collector.blackbox("why")[1] is None

    def test_committed_update_has_no_blackbox(self):
        kernel = Kernel()
        _program, session = _booted_simple(kernel)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(simple.make_program(2))
        assert result.committed
        assert result.blackbox is None

    def test_caller_collector_not_displaced(self):
        kernel = Kernel()
        _program, session = _booted_simple(kernel)
        config = MCRConfig(faults=FaultPlan().at("transfer.memory"))
        ctl = McrCtl(kernel, session)
        with obs.collecting(kernel.clock) as collector:
            result = ctl.live_update(simple.make_program(2), config=config)
            assert obs.ACTIVE is collector
        assert result.blackbox is not None
        # The caller's collector did the recording.
        assert collector.recorder.last_event("fault.injected") is not None


# -- measurement harness / CLI -------------------------------------------------


class TestClientPerceivedMeasurement:
    def test_measure_client_perceived_httpd(self):
        row = measure_client_perceived("httpd")
        assert row["client_requests"] > 0
        assert row["workload_errors"] == 0
        assert row["blackout_ms"] > 0
        assert row["slo_ok"] is True
        assert row["client_p99_ms"] >= row["client_p50_ms"]
        # The update stall dominates the blackout, so p-max sees it too.
        assert row["client_max_ms"] >= row["blackout_ms"] * 0.5

    def test_mcr_ctl_status_surfaces_client(self):
        kernel = Kernel()
        _program, session = _booted_simple(kernel)
        ctl = McrCtl(kernel, session)
        workload = ApacheBench(8080, requests=24, concurrency=2, path="sum")
        clients = workload(kernel)
        kernel.run(until=lambda: workload.latency.count >= 6, max_steps=2_000_000)
        result = ctl.live_update(simple.make_program(2))
        kernel.run(
            until=lambda: all(c.exited for c in clients), max_steps=5_000_000
        )
        assert result.committed
        result.client = ClientPerceived.measure(workload.latency)
        status = ctl.status()
        assert status["last_update_slo_ok"] is True
        assert status["last_update_blackout_ms"] > 0

    def test_metrics_cli_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["metrics", "simple", "--json"]) == 0
        out = capsys.readouterr().out
        assert "SLO met" in out
        assert "repro_client_latency_ns_bucket" in out
        with open(tmp_path / "METRICS_simple.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["committed"] is True
        assert payload["slo_verdict"] == "met"
        client = payload["client"]
        for key in ("requests", "p50_ms", "p95_ms", "p99_ms",
                    "blackout_ms", "downtime_budget_ms", "slo_ok"):
            assert key in client, f"client summary missing {key}"
        assert client["requests"] > 0
        assert client["slo_ok"] is True
        assert "client.latency_ns" in payload["metrics"]


# -- exports -------------------------------------------------------------------


class TestMetricsExport:
    def _collector_with_traffic(self):
        clock = VirtualClock()
        collector = obs.Collector(clock)
        collector.metrics.observe("client.latency_ns", 5_000)
        collector.metrics.observe("client.latency_ns", 9_000)
        collector.recorder.record("sample", "gauges", {"runnable": 2, "fds": 7})
        clock.advance(100)
        collector.recorder.record("event", "update.finished", {"committed": True})
        return collector

    def test_collector_to_dict_includes_metrics_and_flight(self):
        payload = collector_to_dict(self._collector_with_traffic())
        assert payload["metrics"]["client.latency_ns"]["count"] == 2
        flight = payload["flight"]
        assert flight["recorded"] == 2
        assert flight["dropped"] == 0
        assert flight["bytes_used"] > 0
        assert [entry["name"] for entry in flight["entries"]] == [
            "gauges", "update.finished",
        ]

    def test_chrome_trace_counter_events(self):
        trace = chrome_trace(self._collector_with_traffic())
        counter_events = [
            e for e in trace["traceEvents"] if e.get("ph") == "C"
        ]
        flight = [e for e in counter_events if e["name"] == "flight.gauges"]
        assert len(flight) == 1
        assert flight[0]["args"] == {"fds": 7, "runnable": 2}
        hist = [e for e in counter_events if e["name"] == "hist.client.latency_ns"]
        assert len(hist) == 1
        assert hist[0]["args"]["count"] == 2
        assert hist[0]["args"]["p99"] == 9_000
