"""Guard one perfbench workload run: correct, nothing failed, peak RSS bounded.

``perfbench/run.py --workload W`` prints W's result object as JSON on its
last stdout line.  This reads that line from a saved copy of the output
and exits 1 unless the run was ``correct``, ``failed == 0`` and its
``peak_rss_mb`` is below ``MAX_RSS_MB``.

    python3 perfbench/run.py --workload prefork256_roll --iters 1 | tee run.txt
    python3 tools/check_perfbench_run.py run.txt

The bound is the 256-worker prefork roll's: its footprint is pages, three
38 MB copies of what the 257 processes touch (old tree, new tree,
transferred state) plus the interpreter, about 161 MiB (median of ten
runs on a 2-core x86-64 VM, CPython 3.11).  It read 208 while every
new-version fd table carried its own copy of the inheritance stash; 200
fails there and leaves about 24 % headroom.
"""

from __future__ import annotations

import json
import sys
from typing import List

MAX_RSS_MB = 200


def problems(line: str) -> List[str]:
    """Every way the result object on ``line`` fails the guard."""
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
    if not peak < MAX_RSS_MB:
        found.append(f"peak RSS {peak:.0f} MiB, want < {MAX_RSS_MB}")
    return found


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: check_perfbench_run.py PERFBENCH_STDOUT_FILE", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        lines = handle.read().strip().splitlines()
    found = problems(lines[-1]) if lines else ["no perfbench output"]
    for problem in found:
        print(f"check_perfbench_run: {problem}", file=sys.stderr)
    if found:
        return 1
    print(f"perfbench run OK: correct, nothing failed, peak RSS < {MAX_RSS_MB} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
