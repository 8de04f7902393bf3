"""The one server catalog, the one boot, the one world.

MCR itself knows nothing per-server (the paper's point: *generic* server
programs go through one profile → instrument → run → update pipeline).
What the harnesses around it need to know about a subject is written
here and nowhere else:

* ``CATALOG`` — one ``ServerSpec`` row per subject, holding only *facts
  about the server*.  How *much* traffic an experiment sends stays with
  the experiment.
* ``boot`` — the one setup_world → make_program → ``MCRSession`` →
  ``load_program`` → run-until-started recipe.  Every plane (public API,
  CLI, benches, replay scenarios, fleet nodes, checkpoint restore) starts
  a server through it, so "bind a trace / collector / RNG registry
  before boot" has exactly one boot to come before.
* ``World`` — what ``boot`` returns: the one struct holding a booted server.

Bringing a server inside every plane's fence is adding its row.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.errors import SimError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.mcr.config import MCRConfig
from repro.mcr.quiescence.profiler import _tree_quiet
from repro.runtime.instrument import BuildConfig
from repro.runtime.libmcr import MCRSession
from repro.runtime.program import Program, load_program
from repro.servers import httpd, memcache, nginx, opensshd, simple, vsftpd
from repro.servers.common import (
    PORT_HTTPD,
    PORT_NGINX,
    PORT_SIMPLE,
    PORT_SSHD,
    PORT_VSFTPD,
)
from repro.servers.memcache import PORT_MEMCACHE
from repro.workloads import profiles
from repro.workloads.ab import ApacheBench
from repro.workloads.ftpbench import FtpBench
from repro.workloads.holders import ConnectionHolder
from repro.workloads.linebench import LineBench
from repro.workloads.mcbench import McBench
from repro.workloads.sshsuite import SshSuite


class ServerSpec(NamedTuple):
    """One catalog row: what a server *is*, for every plane alike."""

    name: str
    module: Any  # its make_program / setup_world are reached through it
    port: int  # the server's own PORT_* constant
    # The client driver that speaks its protocol, at three sizes: the §8
    # benchmark (None: not a §8 subject); a short run whose defaults —
    # what every fault-matrix golden was recorded with — the scenario's
    # ``workload`` parameters override; a probe that ends with zero
    # errors iff the server is serving.
    workload: Optional[Callable[[], Any]]
    small_workload: Callable[[Dict[str, Any]], Any]
    probe: Callable[[], Any]
    profile: Callable  # the §8 quiescence-profiling script
    holder_kind: Optional[str] = None  # ConnectionHolder protocol; None: cannot park
    # One-shot request line + the reply prefix that counts as served.
    # None: no script yet (a banner must never count as a reply).
    request: Optional[Tuple[str, str]] = None
    # (line, marker): the token after ``marker`` in the reply is the
    # version the serving tree itself reports.  None: no such command.
    version_probe: Optional[Tuple[str, str]] = None
    # The ``nginx_reg`` build: region-allocator instrumentation, in the
    # program *and* in the default build configuration.
    instrument_regions: bool = False

    def make_program(self, version: int = 1) -> Program:
        if self.instrument_regions:
            return self.module.make_program(version, instrument_regions=True)
        return self.module.make_program(version)

    def __getitem__(self, key: str):
        # The frozen perfbench spells a row as a dict
        # (``SERVER_BENCHES[name]["port"]``): a view, not a copy.
        return getattr(self, key)


# -- client drivers: (§8 benchmark, small run, probe) for a port -------------------


def _driver(cls, bench: Dict[str, int], small: Dict[str, int], probe: Dict[str, int]):
    """One driver class at its three sizes, as keyword arguments."""
    return lambda port: (
        lambda: cls(port, **bench),
        lambda params: cls(port, **{k: params.get(k, v) for k, v in small.items()}),
        lambda: cls(port, **probe),
    )


_http = _driver(
    ApacheBench,
    bench=dict(requests=120, concurrency=4),
    small=dict(requests=30, concurrency=2, jitter_ns=0),
    probe=dict(requests=5, concurrency=1),
)
_ftp = _driver(
    FtpBench,
    bench=dict(users=8, retrievals=2),
    small=dict(users=3, retrievals=1),
    probe=dict(users=1, retrievals=1),
)
_ssh = _driver(
    SshSuite,
    bench=dict(sessions=5, commands=3),
    small=dict(sessions=3, commands=2),
    probe=dict(sessions=1, commands=1),
)


def _lines(port: int, script, probe_script, clients: int, bench=None):
    """A command protocol: scripted ``(line, reply prefix)`` exchanges."""
    return (
        bench,
        lambda params: LineBench(port, script, clients=params.get("clients", clients)),
        lambda: LineBench(port, probe_script),
    )


_FILE_REQUEST = ("GET /file1k.bin", "")

CATALOG: Dict[str, ServerSpec] = {
    spec.name: spec
    for spec in (
        ServerSpec(
            "simple", simple, PORT_SIMPLE,
            # ``sum`` is matched by prefix only: with two clients the
            # pushes race, so the total one reads back is not its own 12.
            *_lines(
                PORT_SIMPLE,
                [("push 5", "ok"), ("push 7", "ok"), ("sum", "sum")],
                [("sum", "sum"), ("version", "version")],
                clients=2,
            ),
            profile=profiles.web_profile(PORT_SIMPLE, big_path="/index.html"),
            request=("sum", "sum"),
            version_probe=("version", "version "),
        ),
        ServerSpec(
            "httpd", httpd, PORT_HTTPD, *_http(PORT_HTTPD),
            profile=profiles.web_profile(PORT_HTTPD),
            holder_kind="http", request=_FILE_REQUEST,
        ),
        ServerSpec(
            "nginx", nginx, PORT_NGINX, *_http(PORT_NGINX),
            profile=profiles.web_profile(PORT_NGINX),
            holder_kind="http", request=_FILE_REQUEST,
        ),
        ServerSpec(
            "nginx_reg", nginx, PORT_NGINX, *_http(PORT_NGINX),
            profile=profiles.web_profile(PORT_NGINX),
            holder_kind="http", request=_FILE_REQUEST, instrument_regions=True,
        ),
        ServerSpec(
            "vsftpd", vsftpd, PORT_VSFTPD, *_ftp(PORT_VSFTPD),
            profile=profiles.ftp_profile(PORT_VSFTPD), holder_kind="ftp",
        ),
        ServerSpec(
            "opensshd", opensshd, PORT_SSHD, *_ssh(PORT_SSHD),
            profile=profiles.ssh_profile(PORT_SSHD), holder_kind="ssh",
        ),
        ServerSpec(
            "memcache", memcache, PORT_MEMCACHE,
            *_lines(
                PORT_MEMCACHE,
                [("set k1 v1", "STORED"), ("set k2 v2", "STORED"), ("get k1", "VALUE v1")],
                [("get k1", "VALUE v1"), ("nstats", "STATS")],
                clients=1,
                bench=lambda: McBench(PORT_MEMCACHE, operations=120, concurrency=4),
            ),
            profile=profiles.web_profile(PORT_MEMCACHE, big_path="bigkey"),
            request=("NSTATS", "STATS"),
            version_probe=("NSTATS", " v"),
        ),
    )
}


def lookup(name: str) -> ServerSpec:
    """The row for ``name``; the one unknown-server error."""
    try:
        return CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown server {name!r}; choose from {', '.join(CATALOG)}"
        ) from None


class World(NamedTuple):
    """One booted server instance."""

    spec: ServerSpec
    kernel: Kernel
    program: Program
    session: Optional[MCRSession]  # None under an uninstrumented build
    root: Process
    # The factory this world was booted from.  Replay matches fork counts
    # and call stacks, so an update target must come from the same
    # factory as the running version: ``world.make_program(2)``.
    make_program: Callable[[int], Program]

    @property
    def port(self) -> int:
        return self.spec.port

    def hold(self, count: int) -> ConnectionHolder:
        """``count`` connections of this protocol, for the caller to park."""
        return ConnectionHolder(self.spec.port, count, self.spec.holder_kind)


def boot(
    name: str,
    version: int = 1,
    build: Optional[BuildConfig] = None,
    kernel: Optional[Kernel] = None,
    make_program: Optional[Callable[[int], Program]] = None,
    config: Optional[MCRConfig] = None,
    max_steps: int = 400_000,
) -> World:
    """Start server ``name`` at ``version`` and run it until it is up.

    ``build`` defaults to the full MCR configuration (with region
    instrumentation where the row says so).  ``kernel`` lets the caller
    bind a trace or collector before anything runs.  ``make_program``
    overrides the row's factory — a multi-worker nginx, a 256-process
    httpd — and is what ``world.make_program`` then hands back.  Raises
    ``ValueError`` for an unknown server and ``SimError`` when startup
    does not complete within ``max_steps``.
    """
    spec = lookup(name)
    kernel = kernel or Kernel()
    spec.module.setup_world(kernel)
    factory = make_program or spec.make_program
    program = factory(version)
    if build is None:
        build = BuildConfig.full(instrument_regions=spec.instrument_regions)
    session = MCRSession(kernel, program, build, config) if build.mcr_enabled else None
    root = load_program(kernel, program, build=build, session=session)
    if session is not None:
        started = lambda: session.startup_complete
    else:
        # Uninstrumented baseline: nothing announces startup, so run
        # until the tree stalls for the first time.
        started = lambda: _tree_quiet(root)
    kernel.run(until=started, max_steps=max_steps)
    if not started():
        raise SimError(f"{name}: startup did not complete within {max_steps} steps")
    return World(spec, kernel, program, session, root, factory)
