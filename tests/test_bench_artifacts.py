"""Golden artifacts: the smoke benches reproduce the committed files byte for byte.

Everything these benches report is stamped by the virtual clock, so the
committed ``BENCH_failover.json`` / ``BENCH_migrate.json`` /
``BENCH_faultmatrix.json`` (and the fault matrix's black boxes and
replay trace) are an executable spec of the drills, the controller's
transaction envelope and the black-box writer: any refactor of those
must leave every byte where it was.  Each bench runs through the CLI
entry point in a scratch working directory, exactly as CI runs it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

ARTIFACTS = {
    "failover": ("BENCH_failover.json",),
    "migrate": ("BENCH_migrate.json",),
    "faultmatrix": (
        "BENCH_faultmatrix.json",
        "BENCH_faultmatrix_blackbox.json",
        "BENCH_faultmatrix_blackbox.trace.json",
        "BENCH_faultmatrix_blackbox_failover.json",
        "BENCH_faultmatrix_blackbox_migration.json",
    ),
}


@pytest.mark.parametrize("experiment", sorted(ARTIFACTS))
def test_smoke_bench_reproduces_committed_artifacts(
    experiment, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", experiment, "--smoke", "--json"]) == 0
    capsys.readouterr()  # the rendered tables are not under test here
    for name in ARTIFACTS[experiment]:
        produced = (tmp_path / name).read_bytes()
        committed = (REPO_ROOT / name).read_bytes()
        assert produced == committed, f"{name} drifted from the committed artifact"
