"""Regenerates Table 2: mutable tracing statistics."""

import pytest

from repro.bench.table2 import render, run_table2, trace_statistics


@pytest.fixture(scope="module")
def table2():
    return run_table2()


@pytest.mark.paper
class TestTable2Shape:
    def test_print_table(self, table2):
        print()
        print(render(table2))

    def test_likely_pointers_cannot_be_ignored(self, table2):
        """The paper's first conclusion: many legitimate likely pointers."""
        total_likely = sum(r["likely"]["ptr"] for r in table2.values())
        assert total_likely > 0

    def test_uninstrumented_allocators_dominate_likely(self, table2):
        """httpd (pools) >= nginx (regions+slabs) >> fully instrumented."""
        assert table2["httpd"]["likely"]["ptr"] > table2["nginx"]["likely"]["ptr"]
        assert table2["nginx"]["likely"]["ptr"] > table2["vsftpd"]["likely"]["ptr"]
        assert table2["nginx"]["likely"]["ptr"] > table2["opensshd"]["likely"]["ptr"]

    def test_region_instrumentation_mitigates_but_not_eliminates(self, table2):
        """nginx_reg: more precise, fewer likely, but some remain (slabs)."""
        assert (
            table2["nginx_reg"]["precise"]["ptr"] > table2["nginx"]["precise"]["ptr"]
        )
        assert table2["nginx_reg"]["likely"]["ptr"] < table2["nginx"]["likely"]["ptr"]
        assert table2["nginx_reg"]["likely"]["ptr"] > 0

    def test_instrumented_programs_keep_residual_likely(self, table2):
        """Type-unsafe idioms survive full instrumentation (paper: 6/56)."""
        assert table2["vsftpd"]["likely"]["ptr"] >= 1
        assert table2["opensshd"]["likely"]["ptr"] >= 1
        # ... but they are small compared to precise coverage.
        assert (
            table2["opensshd"]["precise"]["ptr"]
            > table2["opensshd"]["likely"]["ptr"]
        )

    def test_opensshd_points_into_library_state(self, table2):
        """Paper: program pointers into shared-library state exist."""
        lib_targets = (
            table2["opensshd"]["precise"]["targ_lib"]
            + table2["opensshd"]["likely"]["targ_lib"]
        )
        assert lib_targets >= 1

    def test_likely_targets_split_static_and_dynamic(self, table2):
        """Strings attract likely pointers into statics (paper note)."""
        httpd_likely = table2["httpd"]["likely"]
        assert httpd_likely["targ_static"] > 0
        assert httpd_likely["targ_dynamic"] > 0


def test_benchmark_trace(benchmark):
    """pytest-benchmark target: quiesce + full hybrid trace of vsftpd."""
    totals = benchmark.pedantic(
        trace_statistics, args=("vsftpd",), rounds=1, iterations=1,
    )
    assert totals["precise"]["ptr"] > 0
