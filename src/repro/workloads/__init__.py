"""Client workloads: benchmarks and quiescence-profiling scripts.

* ``scripted``  — ``ScriptedClients``, the one client driver; every module
  below but ``profiles`` is a thin constructor over it.
* ``ab``        — the Apache-benchmark analogue (keep-alive HTTP GETs).
* ``mcbench``   — the memcached-benchmark analogue (set/get/nstats mix).
* ``linebench`` — scripted line exchanges for the command servers.
* ``ftpbench``  — the pyftpdlib-benchmark analogue (FTP logins + RETRs).
* ``sshsuite``  — the OpenSSH built-in-test-suite analogue.
* ``holders``   — connection holders: park N connections across a live
  update (Figure 3).
* ``profiles``  — the §8 quiescence-profiling scripts.
"""

from repro.workloads.scripted import Script, ScriptedClients, Step
from repro.workloads.ab import ApacheBench
from repro.workloads.mcbench import McBench
from repro.workloads.linebench import LineBench
from repro.workloads.ftpbench import FtpBench
from repro.workloads.sshsuite import SshSuite
from repro.workloads.holders import ConnectionHolder
from repro.workloads import profiles

__all__ = [
    "ScriptedClients", "Script", "Step", "ApacheBench", "McBench", "LineBench",
    "FtpBench", "SshSuite", "ConnectionHolder", "profiles",
]
