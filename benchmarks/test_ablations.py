"""Ablation benches: what each MCR design choice buys (DESIGN.md)."""

import pytest

from repro.bench.ablations import (
    ablate_dirty_tracking,
    ablate_int64_policy,
    ablate_interior_only,
    ablate_parallel_transfer,
    render,
    run_all,
)


@pytest.mark.paper
class TestAblations:
    def test_print_all(self):
        print()
        print(render(run_all()))

    def test_dirty_tracking_reduces_work(self):
        result = ablate_dirty_tracking("vsftpd", connections=6)
        assert result["objects_without"] > result["objects_with"] * 3
        # Parallelism and fixed coordination costs hide much of it
        # wall-clock; the pure per-object work shows the real saving.
        assert result["work_speedup"] > 1.25
        assert result["serial_speedup"] > 1.05
        assert result["speedup"] >= 1.0

    def test_parallel_transfer_beats_serial_for_process_trees(self):
        result = ablate_parallel_transfer("vsftpd", connections=6)
        assert result["processes"] >= 7  # master + sessions
        assert result["speedup"] > 1.0

    def test_int64_policy_finds_hidden_pointers(self):
        counts = ablate_int64_policy("nginx")
        # Without the policy, the encoded-conf idiom goes unseen.
        assert counts["likely_on"] > counts["likely_off"]

    def test_interior_only_reduces_nonupdatable_set(self):
        counts = ablate_interior_only("httpd")
        assert counts["interior_only"] <= counts["strict"]


def test_benchmark_dirty_ablation(benchmark):
    result = benchmark.pedantic(
        ablate_dirty_tracking, args=("vsftpd", 4), rounds=1, iterations=1
    )
    assert result["speedup"] >= 1.0
