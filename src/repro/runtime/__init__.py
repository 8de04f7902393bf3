"""Build- and run-time glue between simulated programs and MCR.

* ``cruntime``   — the "libc" for program data: typed malloc/free, struct
  field access, strings, stack variables (all operating on simulated
  memory, so state is real bytes with real pointers).
* ``program``    — the program abstraction the "linker" consumes: global
  variable declarations, entry point, annotations, version metadata.
* ``instrument`` — the static instrumentation pass (mcr.llvm + libmcr.a
  analogue): build configurations, static tags, allocator wrappers,
  unblockification of profiled quiescent points.
* ``annotations`` — the program's MCR annotations (Listing 1, §8), program
  metadata like its types and functions.

The per-process dynamic runtime (libmcr.so analogue) is ``repro.mcr.libmcr``:
it reads the MCR session's knobs and quiescence protocol, so it sits with
them above this package.
"""

from repro.runtime.cruntime import CRuntime, SharedLib
from repro.runtime.program import GlobalVar, Program, load_program
from repro.runtime.instrument import BuildConfig

__all__ = [
    "CRuntime",
    "SharedLib",
    "GlobalVar",
    "Program",
    "load_program",
    "BuildConfig",
]
