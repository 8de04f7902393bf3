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


def _check(stdout_text, tmp_path, workload="prefork256_roll"):
    path = tmp_path / "run.txt"
    path.write_text(stdout_text)
    return subprocess.run(
        [sys.executable, str(SCRIPT), workload, str(path)],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    "workload, peak",
    [("prefork256_roll", 174.2), ("sessions40_update", 51.5)],
)
def test_a_correct_run_under_the_bound_passes(workload, peak, tmp_path):
    # perfbench's last stdout line is the result; earlier lines are ignored.
    done = _check("perfbench: warming up\n" + _line(peak=peak) + "\n", tmp_path, workload)
    assert done.returncode == 0, done.stderr
    assert "OK" in done.stdout


@pytest.mark.parametrize(
    "workload, line, complaint",
    [
        ("prefork256_roll", _line(correct=False), "correctness"),
        ("prefork256_roll", _line(failed=2), "2 operations failed"),
        ("prefork256_roll", _line(peak=208.0), "peak RSS 208 MiB, want < 200"),
        # sessions40_update before a dead process gave back its image.
        ("sessions40_update", _line(peak=60.7), "peak RSS 61 MiB, want < 56"),
    ],
)
def test_each_failing_run_fails_the_guard(workload, line, complaint, tmp_path):
    done = _check(line + "\n", tmp_path, workload)
    assert done.returncode == 1
    assert complaint in done.stderr


def test_an_unknown_workload_is_a_usage_error(tmp_path):
    done = _check(_line() + "\n", tmp_path, "serve_midflight")
    assert done.returncode == 2
    assert "usage" in done.stderr
