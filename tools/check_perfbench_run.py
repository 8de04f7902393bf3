"""Guard one perfbench workload run: correct, nothing failed, peak RSS bounded.

``perfbench/run.py --workload W`` prints W's result object as JSON on its
last stdout line.  This reads that line from a saved copy of the output
and exits 1 unless the run was ``correct``, ``failed == 0`` and its
``peak_rss_mb`` is below W's bound in ``MAX_RSS_MB``.

    python3 perfbench/run.py --workload prefork256_roll --iters 1 | tee run.txt
    python3 tools/check_perfbench_run.py prefork256_roll run.txt

The bounds (medians on a 2-core x86-64 VM, CPython 3.11):

* ``prefork256_roll`` < 200: its footprint is pages, three 38 MB copies
  of what the 257 processes touch (old tree, new tree, transferred state)
  plus the interpreter, about 161 MiB.  Its peak is mid-hand-off, while
  the old tree must stay alive for rollback.  It read 208 while every
  new-version fd table carried its own copy of the inheritance stash; 200
  fails there and leaves about 24 % headroom.
* ``sessions40_update`` < 56: about 51.5 MiB since a dead process gives
  back its image (``Kernel._release``).  It read 60.7 while vsftpd's 97
  dead processes still held 7 MiB of pages and their tables at the
  opensshd update's peak; 56 fails there.
* ``serve_midflight`` < 36: about 29.3 MiB, three small servers booted one
  after another, each serving 4 000 requests; 36 leaves about 23 %
  headroom.
* ``fleet_failover`` < 41: about 33.5 MiB, image cycles, two drills and a
  16-node memcache rollout; 41 leaves about 22 % headroom.
"""

from __future__ import annotations

import json
import sys
from typing import List

MAX_RSS_MB = {
    "prefork256_roll": 200, "sessions40_update": 56, "serve_midflight": 36, "fleet_failover": 41,
}


def problems(workload: str, line: str) -> List[str]:
    """Every way the result object on ``line`` fails ``workload``'s guard."""
    bound = MAX_RSS_MB[workload]
    try:
        result = json.loads(line)
        peak = float(result["metrics"]["peak_rss_mb"]["value"])
    except (ValueError, KeyError, TypeError) as error:
        return [f"not a perfbench result line ({error!r}): {line[:80]!r}"]
    found = []
    if result.get("correct") is not True:
        found.append("the run failed its correctness checks")
    if result.get("failed") != 0:
        found.append(f"{result.get('failed')} operations failed")
    if not peak < bound:
        found.append(f"peak RSS {peak:.0f} MiB, want < {bound}")
    return found


def main(argv: List[str]) -> int:
    if len(argv) != 2 or argv[0] not in MAX_RSS_MB:
        print(
            f"usage: check_perfbench_run.py {{{','.join(MAX_RSS_MB)}}} PERFBENCH_STDOUT_FILE",
            file=sys.stderr,
        )
        return 2
    workload, path = argv
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().strip().splitlines()
    found = problems(workload, lines[-1]) if lines else ["no perfbench output"]
    for problem in found:
        print(f"check_perfbench_run: {problem}", file=sys.stderr)
    if found:
        return 1
    print(
        f"perfbench {workload} run OK: correct, nothing failed, "
        f"peak RSS < {MAX_RSS_MB[workload]} MiB"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
