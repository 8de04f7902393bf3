"""Update series for the four evaluation servers (Table 1 inputs).

The paper evaluates 40 updates: 5 each for Apache httpd (v2.2.23–v2.3.8),
vsftpd (v1.1.0–v2.0.2) and OpenSSH (v3.5–v3.8), and 25 for nginx
(v0.8.54–v1.0.15).  Our simulated servers expose the same *kinds* of
changes across a numbered version line:

* pure function changes (most nginx updates — its tight release cycle);
* type changes (fields added to session/scoreboard/stats structures),
  which exercise mutable tracing's type transformations;
* a semantic state change (httpd's scoreboard switches its counter unit),
  which requires a user ``MCR_ADD_OBJ_HANDLER`` — the paper's "793 LOC of
  state transfer code" bucket;
* a startup change (nginx reads an extra config key), which exercises
  mutable reinitialization's live-execution path.

Patch-size columns (LOC/Fun/Var) describe *our* simulated patches; the
benchmark report prints the paper's numbers alongside for comparison.
Type-change counts are computed structurally from the type registries.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.runtime.program import Program
from repro.servers import httpd, nginx, opensshd, vsftpd


class UpdateSpec:
    """One update in a series."""

    def __init__(
        self,
        from_version: int,
        to_version: int,
        description: str,
        loc: int,
        functions: int,
        variables: int,
        needs_st_handler: bool = False,
        st_loc: int = 0,
    ) -> None:
        self.from_version = from_version
        self.to_version = to_version
        self.description = description
        self.loc = loc
        self.functions = functions
        self.variables = variables
        self.needs_st_handler = needs_st_handler
        self.st_loc = st_loc

    def types_changed(self, make: Callable[[int], Program]) -> int:
        old = make(self.from_version)
        new = make(self.to_version)
        diff = new.type_changes(old)
        return len(diff["added"]) + len(diff["removed"]) + len(diff["changed"])


class UpdateSeries:
    """A server's update line plus the paper's reference Table-1 row."""

    def __init__(
        self,
        name: str,
        make: Callable[..., Program],
        updates: List[UpdateSpec],
        paper_row: Dict[str, int],
    ) -> None:
        self.name = name
        self.make = make
        self.updates = updates
        self.paper_row = paper_row

    # -- Table 1 'Updates' / 'Changes' / 'Engineering effort' columns ---------

    def num_updates(self) -> int:
        return len(self.updates)

    def total_loc(self) -> int:
        return sum(u.loc for u in self.updates)

    def total_functions(self) -> int:
        return sum(u.functions for u in self.updates)

    def total_variables(self) -> int:
        return sum(u.variables for u in self.updates)

    def total_types(self) -> int:
        return sum(u.types_changed(self.make) for u in self.updates)

    def annotation_loc(self) -> int:
        return self.make(1).annotations.annotation_loc()

    def st_loc(self) -> int:
        return sum(u.st_loc for u in self.updates)


def _apply_httpd_semantic_handler(program: Program) -> Program:
    """The httpd v5->v6 semantic scoreboard change needs an ST handler:
    access counts change unit from requests to milli-requests."""

    def scoreboard_unit_handler(context) -> None:
        for slot in context.transformed:
            slot["access_count"] = slot["access_count"] * 1000

    program.annotations.MCR_ADD_OBJ_HANDLER(
        "httpd_scoreboard", scoreboard_unit_handler, loc=24
    )
    return program


def make_httpd_update(version: int, **kwargs) -> Program:
    program = httpd.make_program(version, **kwargs)
    if version >= 6:
        _apply_httpd_semantic_handler(program)
    return program


HTTPD_SERIES = UpdateSeries(
    name="httpd",
    make=make_httpd_update,
    updates=[
        UpdateSpec(1, 2, "request-handling refactor", 310, 24, 2),
        UpdateSpec(2, 3, "scoreboard grows bytes_served", 520, 41, 3),
        UpdateSpec(3, 4, "stats grow keepalive accounting", 280, 18, 2),
        UpdateSpec(4, 5, "banner/config cleanup", 150, 9, 4),
        UpdateSpec(5, 6, "scoreboard unit change (semantic)", 460, 33, 1,
                   needs_st_handler=True, st_loc=24),
    ],
    paper_row={"Num": 5, "LOC": 10_844, "Fun": 829, "Var": 28, "Type": 48,
               "Ann": 181, "ST": 302},
)

NGINX_SERIES = UpdateSeries(
    name="nginx",
    make=nginx.make_program,
    updates=(
        [UpdateSpec(1, 2, "worker-cycle tweak", 40, 3, 0)]
        + [UpdateSpec(2, 3, "cycle grows keepalive_timeout", 120, 9, 1)]
        + [UpdateSpec(v, v + 1, f"maintenance release {v + 1}", 35 + v, 2, 0)
           for v in range(3, 7)]
        + [UpdateSpec(7, 8, "connection grows bytes_sent (v7 line)", 140, 11, 1)]
        + [UpdateSpec(v, v + 1, f"maintenance release {v + 1}", 30 + v, 2, 0)
           for v in range(8, 12)]
        + [UpdateSpec(12, 13, "stats grow errors (v12 line)", 110, 8, 1)]
        + [UpdateSpec(v, v + 1, f"maintenance release {v + 1}", 25 + v, 2, 1 if v % 5 == 0 else 0)
           for v in range(13, 26)]
    ),
    paper_row={"Num": 25, "LOC": 9_681, "Fun": 711, "Var": 51, "Type": 54,
               "Ann": 22, "ST": 335},
)

VSFTPD_SERIES = UpdateSeries(
    name="vsftpd",
    make=vsftpd.make_program,
    updates=[
        UpdateSpec(1, 2, "command-loop hardening", 180, 12, 3),
        UpdateSpec(2, 3, "session grows failed_logins", 240, 17, 2),
        UpdateSpec(3, 4, "transfer-path refactor", 160, 11, 1),
        UpdateSpec(4, 5, "session grows idle_seconds", 210, 14, 2),
        UpdateSpec(5, 6, "logging cleanup", 90, 6, 1),
    ],
    paper_row={"Num": 5, "LOC": 5_830, "Fun": 305, "Var": 121, "Type": 35,
               "Ann": 82, "ST": 21},
)

OPENSSHD_SERIES = UpdateSeries(
    name="opensshd",
    make=opensshd.make_program,
    updates=[
        UpdateSpec(1, 2, "auth-path refactor", 260, 19, 2),
        UpdateSpec(2, 3, "session grows auth_attempts", 340, 26, 3),
        UpdateSpec(3, 4, "exec-helper changes", 200, 15, 1),
        UpdateSpec(4, 5, "session grows last_command", 280, 21, 2),
        UpdateSpec(5, 6, "key-handling cleanup", 130, 8, 1),
    ],
    paper_row={"Num": 5, "LOC": 14_370, "Fun": 894, "Var": 84, "Type": 33,
               "Ann": 49, "ST": 135},
)

ALL_SERIES: Dict[str, UpdateSeries] = {
    "httpd": HTTPD_SERIES,
    "nginx": NGINX_SERIES,
    "vsftpd": VSFTPD_SERIES,
    "opensshd": OPENSSHD_SERIES,
}
