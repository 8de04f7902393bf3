"""Regenerates Figure 3: state-transfer time vs open connections."""

import pytest

from repro.bench.figure3 import measure_point, render, run_figure3


@pytest.fixture(scope="module")
def figure3():
    return run_figure3(smoke=True)


@pytest.mark.paper
class TestFigure3Shape:
    def test_print_figure(self, figure3):
        print()
        print(render(figure3))

    def test_all_points_committed(self, figure3):
        for server, points in figure3.items():
            for point in points:
                assert point["committed"], (
                    f"{server} N={point['connections']}: {point['error']}"
                )

    def test_transfer_time_grows_with_connections(self, figure3):
        for server, points in figure3.items():
            times = [p["transfer_ms"] for p in points]
            assert times[-1] > times[0], f"{server}: {times}"
            # Monotonic non-decreasing within measurement granularity.
            for earlier, later in zip(times, times[1:]):
                assert later >= earlier - 0.2, f"{server}: {times}"

    def test_per_connection_process_servers_grow_fastest(self, figure3):
        """Paper: vsftpd/OpenSSH steepest — each connection is a process."""

        def slope(points):
            return (points[-1]["transfer_ms"] - points[0]["transfer_ms"]) / (
                points[-1]["connections"] - points[0]["connections"]
            )

        for forked in ("vsftpd", "opensshd"):
            for threaded in ("httpd", "nginx"):
                assert slope(figure3[forked]) > slope(figure3[threaded]) * 3

    def test_baselines_in_tens_of_ms(self, figure3):
        """Paper: 28-187 ms with no connections (we assert the decade)."""
        for server, points in figure3.items():
            baseline = points[0]["transfer_ms"]
            assert 5.0 < baseline < 200.0, f"{server}: {baseline}"

    def test_dirty_tracking_reduces_transferred_state(self, figure3):
        """Paper: 68-86% of state skipped at 100 connections."""
        for server, points in figure3.items():
            assert points[-1]["dirty_reduction"] > 0.40, (
                f"{server}: {points[-1]['dirty_reduction']:.0%}"
            )

    def test_update_stays_subsecond(self, figure3):
        for server, points in figure3.items():
            for point in points:
                assert point["total_update_ms"] < 1000.0


def test_benchmark_transfer_with_connections(benchmark):
    """pytest-benchmark target: one update at 10 open connections."""
    point = benchmark.pedantic(
        measure_point, args=("vsftpd", 10), rounds=1, iterations=1
    )
    assert point["committed"]
