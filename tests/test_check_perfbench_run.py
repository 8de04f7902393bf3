"""tools/check_perfbench_run.py: the guard CI runs on a perfbench workload."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "check_perfbench_run.py"


def _line(correct=True, failed=0, peak=174.2):
    return json.dumps(
        {
            "correct": correct,
            "attempted": 4,
            "failed": failed,
            "metrics": {"peak_rss_mb": {"value": peak, "unit": "MiB"}},
        }
    )


def _check(stdout_text, tmp_path):
    path = tmp_path / "run.txt"
    path.write_text(stdout_text)
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(path)], capture_output=True, text=True
    )


def test_a_correct_run_under_the_bound_passes(tmp_path):
    # perfbench's last stdout line is the result; earlier lines are ignored.
    done = _check("perfbench: warming up\n" + _line() + "\n", tmp_path)
    assert done.returncode == 0, done.stderr
    assert "OK" in done.stdout


@pytest.mark.parametrize(
    "line, complaint",
    [
        (_line(correct=False), "correctness"),
        (_line(failed=2), "2 operations failed"),
        (_line(peak=208.0), "peak RSS 208 MiB, want < 200"),
    ],
)
def test_each_failing_run_fails_the_guard(line, complaint, tmp_path):
    done = _check(line + "\n", tmp_path)
    assert done.returncode == 1
    assert complaint in done.stderr
