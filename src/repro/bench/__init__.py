"""Benchmark harnesses: one module per paper table/figure.

* ``table1``    — engineering effort (quiescence profiling, update series,
  annotation/ST LOC).
* ``table2``    — mutable tracing statistics (precise vs likely pointers
  by source/target region).
* ``table3``    — run-time overhead, normalized against the baseline,
  across the cumulative instrumentation configurations.
* ``figure3``   — state-transfer time vs number of open connections.
* ``spec2006``  — allocator-instrumentation overhead on allocation-heavy
  microworkloads (the SPEC CPU2006 analogue, perlbench included).
* ``memusage``  — binary-size and resident-set overhead of MCR metadata.
* ``updatetime``— update-time components: quiescence, record/replay
  (control migration), state transfer.

The repo's own experiments (``scanperf``, ``faultmatrix``, ``failover``,
``migrate``, ``fleetroll``, ``fuzz``) sit beside them, and ``harness``
holds what several share: the subjects, the mid-flight update recipe and
the quiesced trace walk.

Each module's run function returns plain dict/list data (choosing its own
``smoke`` subset where it has one), and ``render(results)`` declares each
of its tables once — a title, a column list and mapping rows — for
``reporting.render_table``, whose one cell formatter every cell goes
through.  So the pytest benchmarks can both assert the paper's *shape*
and print the regenerated table.  A module whose results make pass/fail
claims states them once, in ``verdicts(results)``; ``python -m repro
bench`` prints them all on one ``verdicts:`` line under the tables and
exits 1 when one is false.
"""

from repro.bench.harness import SERVER_BENCHES, boot_server
from repro.bench import reporting

__all__ = ["SERVER_BENCHES", "boot_server", "reporting"]
