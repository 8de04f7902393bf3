"""Simulated OS kernel: processes, threads, scheduling, fds, sockets.

Simulated programs are generator coroutines that ``yield``
``SyscallRequest`` objects; the kernel executes each request and resumes
the generator with its result.  Everything MCR interposes on in the paper —
the syscall boundary (record/replay), fork/thread creation (forced IDs,
process pairing), fd allocation (reserved ranges), blocking calls
(unblockification) — is therefore a real interception point here.

One deliberate deviation from POSIX, documented in DESIGN.md: ``fork`` and
``thread_create`` take an explicit continuation function for the child
(Python generators cannot be cloned).  All evaluated servers use the
``if (fork() == 0) { child_main(); }`` idiom anyway, so the translation is
mechanical.
"""

from repro.kernel.kernel import Kernel
from repro.kernel.process import Process, Thread, sim_function
from repro.kernel.syscalls import TIMEOUT, SyscallRequest
from repro.kernel.sysapi import Sys

__all__ = [
    "Kernel",
    "Process",
    "Thread",
    "sim_function",
    "TIMEOUT",
    "SyscallRequest",
    "Sys",
]
