#!/usr/bin/env python3
"""The build-time half of the MCR workflow: profile, inspect, prepare.

Mirrors Figure 1's left side: run the quiescence profiler on each server
under its §8 test workload, print the per-thread report (this is what the
user feeds into the instrumentation), and show the annotation inventory
each program ships with.

Run:  python examples/profile_and_prepare.py
"""

from repro.runtime.build import profile_program
from repro.servers.catalog import CATALOG

SUBJECTS = ("httpd", "nginx", "vsftpd", "opensshd")


def main() -> None:
    for name in SUBJECTS:
        # The catalog row knows the server's module and its §8 profiling
        # script (long-lived idle connections + one large transfer).
        spec = CATALOG[name]
        report = profile_program(
            spec.make_program, spec.module.setup_world, spec.profile
        )
        program = spec.make_program(1)
        print(report.render())
        declared = program.quiescent_points
        profiled = report.quiescent_points()
        marker = "match" if profiled == declared else "DIFFER"
        print(f"profiled vs declared quiescent points: {marker}")
        annotations = program.annotations
        print(
            f"annotations shipped: {annotations.annotation_loc()} LOC "
            f"({len(annotations.obj_handlers)} object handlers, "
            f"{len(annotations.reinit_handlers)} reinit handlers, "
            f"{len(annotations.encoded_pointers)} encoded-pointer notes)"
        )
        print()


if __name__ == "__main__":
    main()
