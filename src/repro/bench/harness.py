"""Shared benchmark scaffolding: the §8 subjects and the Table-3 ladder.

What a server is and how it is started live in ``repro.servers.catalog``:
``boot_server`` is its ``boot`` and ``SERVER_BENCHES`` its rows with a §8
benchmark (AB for the web servers and the ``nginx_reg`` configuration, the
FTP benchmark for vsftpd, the test suite for sshd, mc-bench for memcache).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.runtime.instrument import BuildConfig
from repro.servers.catalog import CATALOG, ServerSpec, boot

# The names the frozen perfbench (and most tests) import: views, not copies.
boot_server = boot
SERVER_BENCHES: Dict[str, ServerSpec] = {
    name: spec for name, spec in CATALOG.items() if spec.workload is not None
}

# The four real programs (nginx_reg is a build configuration, not a fifth).
PRIMARY_SERVERS = ("httpd", "nginx", "vsftpd", "opensshd")


def build_ladder(instrument_regions: bool = False) -> Dict[str, Callable[[], BuildConfig]]:
    """The Table-3 cumulative configuration ladder."""
    return {
        "baseline": BuildConfig.baseline,
        "Unblock": BuildConfig.unblock,
        "+SInstr": lambda: BuildConfig.sinstr(instrument_regions),
        "+DInstr": lambda: BuildConfig.dinstr(instrument_regions),
        "+QDet": lambda: BuildConfig.qdet(instrument_regions),
    }
