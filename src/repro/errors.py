"""Exception hierarchy for the MCR reproduction.

Three families:

* ``SimError`` — faults raised by the simulated machine itself (bad
  addresses, allocator misuse, invalid file descriptors).  These model what
  a real kernel/libc would report to a buggy program.
* ``MCRError`` — faults raised by the MCR live-update machinery.  The most
  important subclass is ``ConflictError``: the paper's "conflict", flagged
  by mutable reinitialization or mutable tracing when an update cannot be
  applied automatically.  A conflict aborts the update and triggers a
  rollback, never a crash of the running version.
* ``ProfilerError`` — faults in the quiescence profiler (e.g. the test
  workload never drove a thread to a quiescent state).
"""

from __future__ import annotations


class SimError(Exception):
    """Base class for simulated-machine faults."""


class MemoryFault(SimError):
    """Access to an unmapped or protection-violating simulated address."""

    def __init__(self, address: int, message: str = "") -> None:
        self.address = address
        detail = message or "invalid memory access"
        super().__init__(f"{detail} at 0x{address:x}")


class AllocatorError(SimError):
    """Heap misuse: double free, corrupt chunk, or impossible request."""


class BadFileDescriptor(SimError):
    """Operation on a file descriptor that is not open in this process."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        super().__init__(f"bad file descriptor: {fd}")


class AddressInUse(SimError):
    """bind() on a port that already has a listening socket."""

    def __init__(self, port: int) -> None:
        self.port = port
        super().__init__(f"address already in use: port {port}")


class WouldBlock(SimError):
    """Internal marker: a syscall would block (kernel parks the thread)."""


class SimTimeout(SimError):
    """A timed blocking call expired without the awaited event."""


class MCRError(Exception):
    """Base class for live-update machinery faults."""


class ConflictError(MCRError):
    """An update cannot be applied automatically; rollback is required.

    ``origin`` identifies the detecting subsystem (``"reinit"`` or
    ``"tracing"``); ``subject`` names the offending syscall or object.
    """

    def __init__(self, origin: str, subject: str, detail: str = "") -> None:
        self.origin = origin
        self.subject = subject
        self.detail = detail
        message = f"[{origin}] conflict on {subject}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class RollbackError(MCRError):
    """The rollback path itself failed (should never happen in practice)."""


class QuiescenceTimeout(MCRError):
    """The barrier protocol failed to converge within its deadline."""


class StateTransferError(MCRError):
    """Mutable tracing failed for a reason other than a flagged conflict."""


class ImageError(MCRError):
    """A checkpoint image cannot be trusted: malformed, corrupt, or
    structurally incompatible with the tree it would restore into.

    ``section`` names the failing part of the image (``"magic"``,
    ``"version"``, ``"meta"``, a binary section name, or a structural
    surface like ``"process-tree"``/``"fds"``) so operators know exactly
    what was damaged.  Raised *before* any restore-side mutation — a bad
    image never produces a partial restore.
    """

    def __init__(self, section: str, detail: str = "") -> None:
        self.section = section
        message = f"checkpoint image invalid in section {section!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class PromotionError(MCRError):
    """A warm standby could not be promoted to primary (failover path)."""


class ProfilerError(Exception):
    """Quiescence profiling could not produce a usable report."""
