"""Cross-process restore proof: write the image in one Python process,
restore it in another.

Everything else in the suite round-trips images inside one interpreter,
where module state could in principle leak into the "restored" node.
These tests drive the ``python -m repro checkpoint`` / ``restore`` CLI
commands as real subprocesses, so the restored tree is rebuilt from
nothing but the bytes on disk — and a flipped bit in those bytes must be
refused, not restored.
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def _repro(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )


def test_image_restores_in_a_fresh_python_process(tmp_path):
    image = tmp_path / "simple.img"
    wrote = _repro("checkpoint", "simple", "--out", str(image), "--serve", "6")
    assert wrote.returncode == 0, wrote.stderr
    assert image.exists() and image.stat().st_size > 0
    assert "fingerprint:" in wrote.stdout
    # Both sides report what the image describes and what it stores.
    assert "resident of 4464640 described" in wrote.stdout

    read = _repro("restore", str(image), "--serve", "4")
    assert read.returncode == 0, read.stdout + read.stderr
    assert "fingerprint verified" in read.stdout
    assert "resident of 4464640 described" in read.stdout
    # The restored tree does not just fingerprint-match: it resumes and
    # actually serves, in a process that never saw the original kernel.
    assert "served 4/4" in read.stdout


def test_corrupt_image_is_refused_across_processes(tmp_path):
    image = tmp_path / "simple.img"
    wrote = _repro("checkpoint", "simple", "--out", str(image))
    assert wrote.returncode == 0, wrote.stderr
    blob = bytearray(image.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # one flipped bit mid-payload
    image.write_bytes(bytes(blob))
    read = _repro("restore", str(image))
    assert read.returncode == 2
    assert "cannot restore" in read.stderr
