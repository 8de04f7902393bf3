"""The paper's headline series: all 25 nginx updates, applied live.

"we selected ... 25 updates for nginx (v0.8.54-v1.0.15)" — the simulated
line walks v1 through v26 with traffic before and after, state carried the
whole way.
"""

import pytest

from repro.bench.harness import boot_server
from repro.kernel import sim_function
from repro.mcr.ctl import McrCtl
from repro.servers import nginx
from repro.servers.updates import NGINX_SERIES
from repro.workloads.client import connect_with_retry, recv_line


@sim_function
def _stats_client(sys, out):
    fd = yield from connect_with_retry(sys, 8081)
    yield from sys.send(fd, b"GET /index.html\n")
    yield from sys.recv(fd)
    yield from sys.send(fd, b"STATS\n")
    line = yield from recv_line(sys, fd)
    out.append(line.decode().strip())
    yield from sys.close(fd)


@pytest.mark.slow
def test_all_25_nginx_updates_live():
    world = boot_server("nginx")
    kernel = world.kernel
    out = []
    kernel.spawn_process(_stats_client, args=(out,))
    kernel.run(max_steps=400_000, until=lambda: len(out) == 1)
    assert out[0] == "stats 2 v1"

    ctl = McrCtl(kernel, world.session)
    assert len(NGINX_SERIES.updates) == 25
    for spec in NGINX_SERIES.updates:
        result = ctl.live_update(nginx.make_program(spec.to_version))
        assert result.committed, (
            f"v{spec.from_version}->v{spec.to_version} "
            f"({spec.description}): {result.error}"
        )
        assert result.total_ms() < 1000.0

    after = []
    kernel.spawn_process(_stats_client, args=(after,))
    kernel.run(max_steps=400_000, until=lambda: len(after) == 1)
    # 2 requests before the walk + 2 from this client; counter carried
    # across every release, now served by v26.
    assert after[0] == "stats 4 v26"
