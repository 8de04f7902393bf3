"""Program definitions and the loader ("ld.gold" of the reproduction).

A ``Program`` is what a server package exports per version: global variable
declarations, a type registry, the entry point, shared libraries, MCR
annotations, and — after quiescence profiling — the set of quiescent
points.  ``load_program`` turns one into a running process: it lays out the
data segment, builds the symbol table, applies the static instrumentation
pass per the build configuration, attaches the MCR runtime, and hands the
entry point to the kernel.

Linker-script support for MCR's immutable static objects: ``pinned_symbols``
forces named globals to their old-version addresses in the new version
(paper §5 — "immutable static memory objects ... are inherited using a
linker script"), and ``lib_bases`` remaps shared libraries to their old
addresses (the prelink step).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.mem.address_space import DATA_BASE
from repro.runtime.annotations import Annotations
from repro.runtime.cruntime import CRuntime, SharedLib
from repro.runtime.instrument import BuildConfig, apply_static_instrumentation
from repro.types import codec
from repro.types.descriptors import TypeDesc
from repro.types.symbols import Symbol, SymbolTable

DATA_SEGMENT_SIZE = 256 * 1024
TEXT_BASE = 0x0000_0040_0000
FUNCTION_STRIDE = 64  # bytes of "code" per simulated function


class GlobalVar:
    """One global variable declaration."""

    __slots__ = ("name", "type", "init")

    def __init__(self, name: str, type_: TypeDesc, init: Any = None) -> None:
        self.name = name
        self.type = type_
        self.init = init


class Program:
    """A loadable server program version."""

    def __init__(
        self,
        name: str,
        version: str,
        globals_: List[GlobalVar],
        main: Callable,
        types: Optional[Dict[str, TypeDesc]] = None,
        libs: Optional[List[Tuple[str, int]]] = None,
        annotations: Optional[Annotations] = None,
        quiescent_points: Optional[set] = None,
        metadata: Optional[Dict[str, Any]] = None,
        functions: Optional[List[str]] = None,
    ) -> None:
        self.name = name
        self.version = version
        self.globals_ = list(globals_)
        self.main = main
        self.types = dict(types or {})
        self.libs = list(libs or [])
        # Named functions: laid out in a text segment so programs can take
        # their addresses; code pointers are remapped *by symbol name*
        # across versions (paper §6: relocation tags for functions too).
        self.functions = list(functions or [])
        self.annotations = annotations if annotations is not None else Annotations()
        # (function_name, syscall_name) pairs, produced by the profiler.
        self.quiescent_points = set(quiescent_points or ())
        # Filled by the relink step of an update (``GlobalRealloc``'s plan)
        # before this version is loaded.
        self.pinned_symbols: Dict[str, int] = {}
        self.lib_bases: Dict[str, int] = {}
        self.metadata = dict(metadata or {})

    def type_changes(self, older: "Program") -> Dict[str, List[str]]:
        """Structural diff of the type registries (Table 1 'Type' input)."""
        added = [n for n in self.types if n not in older.types]
        removed = [n for n in older.types if n not in self.types]
        changed = [
            n
            for n in self.types
            if n in older.types
            and self.types[n].signature() != older.types[n].signature()
        ]
        return {"added": added, "removed": removed, "changed": changed}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Program {self.name} v{self.version}>"


def _layout_text_segment(process: Process, program: Program, symbols: SymbolTable) -> None:
    """Assign an address to every named function (the text segment).

    Layout is declaration-order dependent, so two versions generally place
    the same-named function at *different* addresses — which is exactly why
    code pointers must be remapped by symbol, never copied.  The version
    string perturbs the base so the difference is guaranteed in tests.
    """
    if not program.functions:
        return
    from repro.types.descriptors import FuncType

    size = (len(program.functions) + 1) * FUNCTION_STRIDE
    offset = (sum(ord(c) for c in program.version) % 4) * FUNCTION_STRIDE
    mapping = process.space.map(
        size + offset + 4096, address=TEXT_BASE, name="text", kind="data"
    )
    cursor = mapping.base + offset
    for name in program.functions:
        symbols.add(Symbol(name, FuncType(name), cursor, section="text"))
        cursor += FUNCTION_STRIDE


def _layout_data_segment(process: Process, program: Program) -> SymbolTable:
    """Place globals in the data segment; honor linker-script pins."""
    mapping = process.space.map(
        DATA_SEGMENT_SIZE, address=DATA_BASE, name="data", kind="data"
    )
    symbols = SymbolTable()
    _layout_text_segment(process, program, symbols)
    pinned_ranges: List[Tuple[int, int]] = []
    for var in program.globals_:
        pin = program.pinned_symbols.get(var.name)
        if pin is not None:
            if not (mapping.base <= pin and pin + var.type.size <= mapping.end):
                raise SimError(
                    f"pinned symbol {var.name} at 0x{pin:x} outside data segment"
                )
            symbols.add(Symbol(var.name, var.type, pin))
            pinned_ranges.append((pin, pin + var.type.size))
    pinned_ranges.sort()
    cursor = mapping.base
    for var in program.globals_:
        if var.name in symbols:
            continue
        aligned = (cursor + var.type.align - 1) // var.type.align * var.type.align
        # Skip over any pinned range we would collide with.
        placed = False
        while not placed:
            placed = True
            for start, end in pinned_ranges:
                if aligned < end and start < aligned + var.type.size:
                    aligned = (end + var.type.align - 1) // var.type.align * var.type.align
                    placed = False
        if aligned + var.type.size > mapping.end:
            raise SimError(f"data segment overflow placing {var.name}")
        symbols.add(Symbol(var.name, var.type, aligned))
        cursor = aligned + var.type.size
    # Write initial values.
    for var in program.globals_:
        if var.init is not None:
            symbol = symbols.lookup(var.name)
            codec.write_value(process.space, symbol.address, symbol.type, var.init)
    return symbols


def load_program(
    kernel: Kernel,
    program: Program,
    build: Optional[BuildConfig] = None,
    session: Optional[Any] = None,
    main_args: Tuple = (),
    namespace: Optional[Any] = None,
    main_override: Optional[Callable] = None,
) -> Process:
    """Load and start ``program`` in a fresh process.

    ``session`` is the ``MCRSession`` to attach (callers pass one when the
    build enables any MCR layer); the process does not run until
    ``kernel.run`` is called.
    ``namespace``/``main_override`` support MCR restart: the new version
    runs in its own PID namespace behind an inheritance bootstrap.
    """
    build = build or BuildConfig.baseline()
    process = kernel.spawn_process(
        main_override or program.main,
        args=main_args,
        name=program.name,
        namespace=namespace,
    )
    process.program = program
    process.build = build
    process.symbols = _layout_data_segment(process, program)
    process.crt = CRuntime(process)
    process.libs = {}
    for lib_name, lib_size in program.libs:
        base = program.lib_bases.get(lib_name)
        process.libs[lib_name] = SharedLib(process, lib_name, lib_size, base=base)
    if build.static_instr:
        apply_static_instrumentation(process, program)
    if not (build.mcr_enabled and build.dynamic_instr):
        # Startup-time separability (deferred frees, startup flagging) is
        # dynamic-instrumentation behaviour; other builds run the heap in
        # normal mode from the start.
        process.heap.end_startup()
    if session is not None:
        process.runtime = session.attach_process(process)
    return process
