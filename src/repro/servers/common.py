"""Shared scaffolding for the simulated servers.

Besides the connect/send/recv helpers, this module is the one routing
point for *client-perceived* measurements: every workload driver stamps
each request with virtual-clock send/receive times through a
``ClientLatencyLog``, and ``ClientPerceived`` turns one log into the
update verdict the paper's evaluation is built on — the latency
distribution plus the blackout interval (the longest gap in completed
responses) judged against a downtime budget.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.clock import ns_to_ms
from repro.errors import SimError
from repro.kernel.process import sim_function
from repro.obs.metrics import Histogram

# Ports, one per server, stable across versions.
PORT_SIMPLE = 8080
PORT_HTTPD = 80
PORT_NGINX = 8081
PORT_VSFTPD = 21
PORT_SSHD = 22


@sim_function
def connect_with_retry(sys, port: int, attempts: int = 50, backoff_ns: int = 1_000_000):
    """Client-side connect that retries while the server is still binding."""
    last_error: Optional[SimError] = None
    for _ in range(attempts):
        try:
            fd = yield from sys.connect(port)
            return fd
        except SimError as error:
            last_error = error
            yield from sys.nanosleep(backoff_ns)
    raise last_error if last_error is not None else SimError("connect failed")


@sim_function
def recv_line(sys, fd: int, timeout_ns: Optional[int] = None):
    """Receive until a newline (requests are tiny; one recv usually does)."""
    buffered = bytearray()
    while True:
        data = yield from sys.recv(fd, timeout_ns=timeout_ns)
        if data is None or data == b"" or not isinstance(data, (bytes, bytearray)):
            return bytes(buffered) if buffered else b""
        buffered.extend(data)
        if b"\n" in buffered:
            line, _, rest = bytes(buffered).partition(b"\n")
            # Tiny protocol: at most one request in flight per client, so
            # ``rest`` is empty by construction.
            return line


def parse_command(line: bytes) -> List[str]:
    return line.decode(errors="replace").strip().split()


# -- client-perceived measurement ----------------------------------------------


class ClientLatencyLog:
    """Per-workload virtual-time request stamps: (send_ns, recv_ns) pairs.

    Every workload driver owns one and calls ``record`` when a request
    completes.  Recording never advances the virtual clock, so stamping
    requests cannot change any measured phase timing; each observation is
    additionally routed into the active collector's metrics registry (a
    no-op when none is installed).
    """

    def __init__(self, metric: str = "client.latency_ns") -> None:
        self.metric = metric
        self.samples: List[Tuple[int, int]] = []

    @classmethod
    def merged(cls, logs: Iterable["ClientLatencyLog"]) -> "ClientLatencyLog":
        """One log holding every sample of ``logs``, sorted: what the
        clients of several nodes saw together."""
        log = cls()
        log.samples = sorted(sample for each in logs for sample in each.samples)
        return log

    def record(self, send_ns: int, recv_ns: int) -> None:
        self.samples.append((send_ns, recv_ns))
        obs.observe(self.metric, recv_ns - send_ns)

    @property
    def count(self) -> int:
        return len(self.samples)

    def latencies_ns(self) -> List[int]:
        return [recv_ns - send_ns for send_ns, recv_ns in self.samples]

    def completions_ns(self) -> List[int]:
        return sorted(recv_ns for _send_ns, recv_ns in self.samples)

    def histogram(self, boundaries: Optional[Sequence[int]] = None) -> Histogram:
        return Histogram.from_values(
            self.metric, self.latencies_ns(), boundaries=boundaries
        )

    def blackout_ns(self, window: Optional[Tuple[int, int]] = None) -> int:
        """The longest gap in completed responses, in virtual ns.

        This is the client-visible stall: the maximum interval during
        which *no* request completed.  With an explicit ``window`` the
        edges count too (no completion near a window edge is a stall);
        by default the window spans the observed completions.
        """
        completions = self.completions_ns()
        if not completions:
            if window is not None:
                return window[1] - window[0]
            return 0
        points = list(completions)
        if window is not None:
            lo, hi = window
            # Clamp out-of-window completions onto the nearest edge
            # instead of discarding them: a response that completed just
            # outside the window still bounds the stall at that edge,
            # whereas dropping it would inflate the measured blackout.
            points = [lo] + sorted(min(max(c, lo), hi) for c in points) + [hi]
        if len(points) < 2:
            return 0
        return max(b - a for a, b in zip(points, points[1:]))


class ClientPerceived:
    """The workload's verdict on one live update.

    Bundles the latency histogram, the measured blackout interval, and
    the SLO verdict against a configurable downtime budget
    (``MCRConfig.downtime_budget_ns``).
    """

    def __init__(
        self,
        histogram: Histogram,
        blackout_ns: int,
        budget_ns: int,
        window_ns: int = 0,
    ) -> None:
        self.histogram = histogram
        self.blackout_ns = blackout_ns
        self.budget_ns = budget_ns
        self.window_ns = window_ns
        self.slo_ok = blackout_ns <= budget_ns

    @classmethod
    def measure(
        cls,
        log: ClientLatencyLog,
        budget_ns: int,
        window: Optional[Tuple[int, int]] = None,
    ) -> "ClientPerceived":
        completions = log.completions_ns()
        if window is not None:
            window_ns = window[1] - window[0]
        elif len(completions) >= 2:
            window_ns = completions[-1] - completions[0]
        else:
            window_ns = 0
        return cls(
            log.histogram(),
            log.blackout_ns(window),
            budget_ns,
            window_ns=window_ns,
        )

    def to_dict(self) -> Dict[str, object]:
        summary = self.histogram.summary_ms()
        return {
            "requests": summary["count"],
            "p50_ms": summary["p50_ms"],
            "p95_ms": summary["p95_ms"],
            "p99_ms": summary["p99_ms"],
            "max_ms": summary["max_ms"],
            "blackout_ms": ns_to_ms(self.blackout_ns),
            "downtime_budget_ms": ns_to_ms(self.budget_ns),
            "window_ms": ns_to_ms(self.window_ns),
            "slo_ok": self.slo_ok,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        verdict = "ok" if self.slo_ok else "VIOLATED"
        return (
            f"<ClientPerceived n={self.histogram.count} "
            f"blackout={ns_to_ms(self.blackout_ns):.2f}ms slo={verdict}>"
        )
