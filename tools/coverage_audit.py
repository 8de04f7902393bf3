"""Which ``src/repro`` functions and statements the product never executes.

Runs the product suite under a stdlib ``sys.settrace`` hook and reports
the ``src/repro`` functions (nested ones included) whose code never ran,
and with ``--lines`` the statements that never ran.  A ``sitecustomize``
shim put first on ``PYTHONPATH`` starts the hook in every Python process
the suite starts, so ``python -m repro ...`` subprocesses and the
perfbench children count too.  No coverage package: stdlib only.

    python tools/coverage_audit.py           # functions
    python tools/coverage_audit.py --lines   # statements too (about 2x slower)

The product suite is what a user or CI runs, never tier-1: every
``--smoke`` bench CI runs, the full ``bench fuzz``, each CLI verb
(``demo``, ``profile``, ``status``, ``checkpoint`` then ``restore`` in
a second process, ``trace``, ``metrics``, and ``replay --to-failure
--export`` of the fault matrix black box), ``benchmarks/``,
``examples/`` and one iteration of each perfbench workload.  It runs in
about 2 minutes on 2 cores.  Benches run in a scratch directory, so the
committed ``BENCH_*.json`` files are not rewritten.  Code only tests
reach belongs in ``tests/``.

A never-executed function named in ``KEPT`` is reported with its reason;
any other is listed as unexplained.  The exit status is 1 if one is
unexplained, if a ``KEPT`` entry ran or no longer exists, if a process
lost the trace function, or if a suite command failed -- so the audit
also smoke-tests every CLI verb.  Running the function in the product,
moving it to ``tests/``, deleting it, or adding it to ``KEPT`` with a
reason of one of the three kinds below clears it.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, Iterator, List, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

ENV_OUT = "COVERAGE_AUDIT_OUT"
ENV_LINES = "COVERAGE_AUDIT_LINES"

# Never executed by the product suite, and kept on purpose.  Keyed by
# ``<path under src/repro>:<qualified name>``.  Every reason is one of:
# ``(d)`` a path the product should run but does not, named by its
# ROADMAP item 2 cell; ``(s)`` safety code, which runs only when
# something goes wrong; or ``test accessor``, a read accessor of at most
# three lines that the tests observe state through.
_CELL_DRIFT = "(d) item 2 cell: a standby repaired after structural drift in failover or migration"
_CELL_STACK = "(d) item 2 cell: a subject declaring overlay stack metadata (paper section 6)"
_SHRINK = "(s) the fuzz shrinker: runs only when a drawn scenario fails"
_DIVERGENCE = "(s) replay divergence: runs only when a replay departs from its recording"
_ACCESSOR = "test accessor"
KEPT: Dict[str, str] = {
    "checkpoint/standby.py:WarmStandby.resync": _CELL_DRIFT,
    "runtime/cruntime.py:StackArea.__init__": _CELL_STACK,
    "runtime/cruntime.py:StackArea.mark": _CELL_STACK,
    "runtime/cruntime.py:StackArea.release": _CELL_STACK,
    "runtime/cruntime.py:StackArea.alloc": _CELL_STACK,
    "runtime/cruntime.py:CRuntime.stack_area": _CELL_STACK,
    "runtime/cruntime.py:CRuntime.stack_alloc": _CELL_STACK,
    "runtime/cruntime.py:CRuntime.stack_mark": _CELL_STACK,
    "runtime/cruntime.py:CRuntime.stack_release": _CELL_STACK,
    "servers/updates.py:_apply_httpd_semantic_handler.scoreboard_unit_handler": (
        "(d) item 2 cell: an update series step past v2 (httpd v5->v6 is the semantic one)"
    ),
    "errors.py:BadFileDescriptor.__init__": "(s) the error a bad descriptor raises",
    "errors.py:AddressInUse.__init__": "(s) the error a bind to a taken port raises",
    "mem/address_space.py:AddressSpace._unmapped_detail": "(s) names the neighbours of a faulting address",
    "kernel/files.py:OpenFile.acquire": "(s) the shared reference a fork or stash takes on an open file",
    "workloads/scripted.py:ScriptedClients._stop": "(s) charges a failed script's remaining steps as errors",
    "mcr/diagnostics.py:explain_conflict": "(s) the remediation advice of a rolled-back update",
    "replay/trace.py:Divergence.__init__": _DIVERGENCE,
    "replay/trace.py:Divergence.to_dict": _DIVERGENCE,
    "replay/trace.py:TraceLog._checkpoint": _DIVERGENCE,
    "replay/trace.py:TraceLog._diverge": _DIVERGENCE,
    "bench/fuzz.py:shrink_spec": _SHRINK,
    "bench/fuzz.py:_drop_jitter": _SHRINK,
    "bench/fuzz.py:_drop_holders": _SHRINK,
    "bench/fuzz.py:_single_client": _SHRINK,
    "bench/fuzz.py:_minimal_requests": _SHRINK,
    "bench/fuzz.py:_whole_tree": _SHRINK,
    "bench/fuzz.py:_deterministic_fault": _SHRINK,
    "bench/fuzz.py:_no_fault": _SHRINK,
    "types/descriptors.py:TypeDesc._build_signature": "(s) the abstract hook: a descriptor that forgets it fails loudly",
    "types/codec.py:MemoryView.read_bytes": "(s) a typing.Protocol stub: the interface the codec reads through",
    "types/codec.py:MemoryView.write_bytes": "(s) a typing.Protocol stub: the interface the codec writes through",
    "kernel/fdtable.py:FDTable.fds": _ACCESSOR,
    "kernel/sysapi.py:Sys.sched_yield": _ACCESSOR,
    "kernel/syscalls.py:SyscallTable.sys_sched_yield": _ACCESSOR,
    "mcr/reinit/immutable.py:FdStash.is_claimed": _ACCESSOR,
    "mcr/reinit/immutable.py:FdStash.__len__": _ACCESSOR,
    "mcr/reinit/realloc.py:Superobject.end": _ACCESSOR,
    "mcr/reinit/startup_log.py:SyscallRecord.creates_immutable": _ACCESSOR,
    "mem/regions.py:RegionAllocator.block_count": _ACCESSOR,
    "mem/regions.py:NestedPool.destroyed": _ACCESSOR,
    "mem/regions.py:NestedPool.blocks": _ACCESSOR,
    "obs/counters.py:CounterSet.get": _ACCESSOR,
    "obs/counters.py:CounterSet.__len__": _ACCESSOR,
    "obs/events.py:EventLog.__len__": _ACCESSOR,
    "obs/metrics.py:MetricsRegistry.__len__": _ACCESSOR,
    "obs/metrics.py:MetricsRegistry.__contains__": _ACCESSOR,
    "obs/recorder.py:FlightRecorder.bytes_used": _ACCESSOR,
    "obs/recorder.py:FlightRecorder.__len__": _ACCESSOR,
    "runtime/instrument.py:BuildConfig.updatable": _ACCESSOR,
    "types/descriptors.py:TypeDesc.pointer_offsets": _ACCESSOR,
    "types/descriptors.py:TypeDesc.opaque_ranges": _ACCESSOR,
    "types/descriptors.py:UnionType.is_opaque": _ACCESSOR,
    "types/descriptors.py:OpaqueType._build_signature": _ACCESSOR,
    "workloads/scripted.py:ScriptedClients.latencies_ns": _ACCESSOR,
}
# ``__repr__`` bodies are debugging aids; they are counted, never listed.
REPR = "__repr__"

_SITECUSTOMIZE = f"""\
import sys
sys.path.insert(0, {HERE!r})
import coverage_audit
coverage_audit.start()
"""


# -- the hook: runs inside every traced process ---------------------------------


def start() -> None:
    """Trace this process if the audit asked for it; dump on exit."""
    out = os.environ.get(ENV_OUT)
    if not out:
        return
    prefix = PACKAGE + os.sep
    codes: Set = set()
    lines: Set[Tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    if os.environ.get(ENV_LINES) == "1":

        def tracer(frame, event, arg):
            code = frame.f_code
            codes.add(code)
            return local if code.co_filename.startswith(prefix) else None

    else:

        def tracer(frame, event, arg):
            codes.add(frame.f_code)

    def dump() -> None:
        # Someone else's ``settrace`` (a Hypothesis failure explanation,
        # say) ends the audit's for the rest of the process.
        intact = sys.gettrace() is tracer
        sys.settrace(None)
        ran = sorted(
            {(c.co_filename, c.co_firstlineno) for c in codes if c.co_filename.startswith(prefix)}
        )
        path = os.path.join(out, f"{os.getpid()}-{time.monotonic_ns()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"functions": ran, "lines": sorted(lines), "intact": intact}, handle)

    atexit.register(dump)
    threading.settrace(tracer)
    sys.settrace(tracer)


# -- the driver -----------------------------------------------------------------


def default_suite(scratch: str) -> List[Tuple[List[str], str]]:
    """(command, cwd) pairs: what the product runs -- CI's benches, every
    CLI verb, ``benchmarks/``, the examples and perfbench -- not tier-1."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    suite = []
    for bench in ("scanperf", "updatetime", "faultmatrix", "failover", "migrate", "fleetroll"):
        suite.append((repro + ["bench", bench, "--smoke", "--json"], scratch))
    image = os.path.join(scratch, "img")
    suite += [
        (repro + ["bench", "fuzz", "--json"], scratch),
        (repro + ["demo"], scratch),
        (repro + ["profile"], scratch),
        (repro + ["status"], scratch),
        (repro + ["checkpoint", "simple", "--serve", "20", "--out", image], scratch),
        (repro + ["restore", image, "--serve", "20"], scratch),
        (repro + ["trace", "simple", "--export", os.path.join(scratch, "trace.json")], scratch),
        (repro + ["metrics", "simple", "--json"], scratch),
        (
            repro
            + ["replay", os.path.join(ROOT, "BENCH_faultmatrix_blackbox.json"), "--to-failure"]
            + ["--export", os.path.join(scratch, "replay")],
            scratch,
        ),
        ([py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks"], ROOT),
    ]
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            suite.append(([py, os.path.join(examples, name)], scratch))
    for workload in ("serve_midflight", "prefork256_roll", "sessions40_update", "fleet_failover"):
        suite.append(
            ([py, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload, "--iters", "1"], ROOT)
        )
    return suite


def run(commands: List[Tuple[List[str], str]], lines: bool, data: str) -> List[str]:
    """Run each command traced; returns the ones that exited non-zero."""
    hook = tempfile.mkdtemp(prefix="coverage-audit-hook-")
    with open(os.path.join(hook, "sitecustomize.py"), "w", encoding="utf-8") as handle:
        handle.write(_SITECUSTOMIZE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [hook, SRC, env.get("PYTHONPATH")]))
    env[ENV_OUT] = data
    env[ENV_LINES] = "1" if lines else "0"
    failed = []
    try:
        for command, cwd in commands:
            t0 = time.perf_counter()
            done = subprocess.run(
                command, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
            )
            shown = " ".join(os.path.relpath(a, ROOT) if a.startswith(ROOT) else a for a in command[1:])
            print(f"  {time.perf_counter() - t0:7.1f} s  exit {done.returncode}  {shown}", flush=True)
            if done.returncode:
                failed.append(shown)
                print("\n".join("      " + line for line in done.stdout.splitlines()[-20:]))
    finally:
        shutil.rmtree(hook)
    return failed


def _functions(tree: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """(qualified name, node) of every def, nested ones included."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                yield name, child
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _first_line(node: ast.AST) -> int:
    """A code object's ``co_firstlineno``: its first decorator, else ``def``."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _statements(node: ast.AST) -> Iterator[ast.stmt]:
    """The statements of one function body in source order, not of nested defs."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(child, ast.stmt):
            yield child
        yield from _statements(child)


def _lines_of(stmt: ast.stmt) -> range:
    """The lines a statement's own code is on (a compound statement's header)."""
    body = getattr(stmt, "body", None)
    end = body[0].lineno - 1 if isinstance(body, list) and body else stmt.end_lineno
    return range(stmt.lineno, max(stmt.lineno, end) + 1)


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(
        stmt.value.value, str
    )


def report(data: str, lines: bool) -> int:
    ran: Set[Tuple[str, int]] = set()
    hit: Set[Tuple[str, int]] = set()
    cut_short = 0
    for name in os.listdir(data):
        with open(os.path.join(data, name), encoding="utf-8") as handle:
            dump = json.load(handle)
        ran.update(map(tuple, dump["functions"]))
        hit.update(map(tuple, dump["lines"]))
        cut_short += not dump["intact"]

    total = never = repr_lines = body_lines = statements = missed = 0
    kept, unexplained, runs = [], [], []
    stale = set(KEPT)
    for folder, _, files in sorted(os.walk(PACKAGE)):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.join(folder, file)
            rel = os.path.relpath(path, PACKAGE)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for qualname, node in _functions(tree):
                total += 1
                if lines:
                    body = [s for s in _statements(node) if not _is_docstring(s)]
                    body = [s for s in body if not isinstance(s, (ast.Try, ast.Global, ast.Nonlocal))]
                    statements += len(body)
                    run_ = []
                    for stmt in body + [None]:
                        if stmt is not None and not any((path, n) in hit for n in _lines_of(stmt)):
                            missed += 1
                            run_.append(stmt)
                            continue
                        if len(run_) >= 3 and (path, _first_line(node)) in ran:
                            runs.append(f"{rel}:{run_[0].lineno}  {qualname}  ({len(run_)} statements)")
                        run_ = []
                if (path, _first_line(node)) in ran:
                    continue
                key = f"{rel}:{qualname}"
                stale.discard(key)
                never += 1
                size = node.end_lineno - node.lineno + 1
                if node.name == REPR:
                    repr_lines += size
                    continue
                body_lines += size
                row = f"{rel}:{node.lineno}  {qualname}  ({size} lines)"
                if key in KEPT and not (KEPT[key] == _ACCESSOR and size > 3):
                    kept.append(f"{row}  -- {KEPT[key]}")
                else:
                    unexplained.append(row)

    if cut_short:
        print(f"\nWARNING: {cut_short} process(es) lost the trace function early; counts are high")
    print(f"\nfunctions: {total}, never executed: {never}")
    print(f"  never-run bodies: {body_lines} lines, plus {repr_lines} lines of __repr__")
    if lines:
        print(f"statements: {statements}, never executed: {missed}; runs of 3 or more: {len(runs)}")
    print(f"\nkept on purpose ({len(kept)}):")
    print("\n".join(f"  {row}" for row in kept))
    print(f"\nunexplained ({len(unexplained)}):")
    print("\n".join(f"  {row}" for row in unexplained))
    print(f"\nKEPT entries that ran or no longer exist ({len(stale)}):")
    print("\n".join(f"  {key}" for key in sorted(stale)))
    if lines:
        print(f"\nunexecuted statement runs inside executed functions ({len(runs)}):")
        print("\n".join(f"  {row}" for row in runs))
    return 1 if unexplained or stale or cut_short else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lines", action="store_true", help="report statements too")
    args = parser.parse_args(argv)

    data = tempfile.mkdtemp(prefix="coverage-audit-")
    scratch = tempfile.mkdtemp(prefix="coverage-audit-cwd-")
    try:
        failed = run(default_suite(scratch), args.lines, data)
        status = report(data, args.lines)
    finally:
        shutil.rmtree(scratch)
        shutil.rmtree(data)
    if failed:
        print(f"\n{len(failed)} command(s) failed: {failed}")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
