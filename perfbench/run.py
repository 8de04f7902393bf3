"""perfbench: one dual-clock benchmark for the simulator (see README.md).

    python3 perfbench/run.py                         # all workloads, table + envelope
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding exactly the
``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or exactly its
``per_layer`` metrics (``--trace 1``).  Each workload is measured in a
child process of its own, so its peak RSS is its own.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up is timed from here

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = (
    "serve_midflight", "prefork256_roll", "sessions40_update", "fleet_failover",
)

# One untimed iteration before the clock starts: imports are done, lazy
# caches are full and the allocator has grown to the workload's footprint.
WARMUPS = 1
# Whole iterations run until --seconds are used, and never fewer than
# this (a minimum needs something to be the minimum of).
MIN_ITERS = 2
# setup_s is the median over this many fresh children: the measuring one
# and SETUPS - 1 that stop after their warm-up.
SETUPS = 3
# The whole command must be done well inside the driver's 180 s.
DEADLINE_S = 170.0
# glibc malloc, for the children: serve every size from the heap and never
# give freed memory back.  The worlds here are hundreds of multi-MB
# bytearrays per iteration; by default the big ones are mmap'd and
# munmap'd each time, so every iteration first-touches its memory again,
# and on a VM that page-fault path is the least steady thing there is
# (README.md, "The allocator setting").  First touch is paid once, in
# set-up; what a default run pays is host.default_malloc_iter_s.
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}
DEFAULT_MALLOC_ITERS = 2


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- the child: one workload, one process ----------------------------------------


def _one_iteration(args: argparse.Namespace, tracer: Any) -> Dict[str, Any]:
    """One timed iteration: GC out of the way, clock and rusage around it."""
    from workloads import iterate

    gc.collect()
    gc.disable()
    tracer.reset()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        it = iterate(args.workload, args.seed, tracer, args.scratch)
        host_s = time.perf_counter() - t0
    finally:
        gc.enable()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "host_s": host_s,
        "cpu_user_s": usage1.ru_utime - usage0.ru_utime,
        "cpu_sys_s": usage1.ru_stime - usage0.ru_stime,
        "attempted": it.attempted,
        "failed": it.failed,
        "problems": it.problems,
        "results": dict(it.results),
        "self_ms": {k: v / 1e6 for k, v in tracer.self_ns.items()},
        "calls": dict(tracer.calls),
        "work": dict(tracer.work),
        "counters": dict(tracer.counters),
    }


def _layer_metrics(
    plain: List[Dict[str, Any]], traced: List[Dict[str, Any]]
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``*_host_ms`` are minima)."""
    out: Dict[str, float] = dict(traced[0]["results"])
    for name in sorted({name for row in traced for name in row["self_ms"]}):
        out[f"{name}_host_ms"] = min(row["self_ms"].get(name, 0) for row in traced)
    for name in ("mem.clone", "mem.write", "mem.view", "types.pointer_offsets", "obs.emit"):
        out[f"{name}_calls"] = traced[0]["calls"].get(name, 0)
    out["mem.clone_mb"] = traced[0]["work"].get("mem.clone", 0) / 1e6
    counters = traced[0]["counters"]
    for metric, counter in (
        ("kernel.steps", "kernel.steps"),
        ("kernel.syscalls", "syscall.total"),
        ("kernel.sched_wakes", "sched.wakes"),
        ("kernel.forks", "syscall.fork"),
        ("mcr.reinit.replayed_ops", "mcr.replayed_ops_recorded"),
        ("mcr.tracing.scan_words", "scan.words"),
        ("mcr.tracing.objects_traced", "transfer.objects_traced"),
        ("mcr.tracing.bytes_copied", "transfer.bytes_copied"),
        ("mcr.tracing.conflicts", "transfer.conflicts"),
    ):
        out[metric] = counters.get(counter, 0)
    out["mcr.tracing.scan_cache_hit_share"] = _share(
        counters.get("scan.words_from_cache", 0), counters.get("scan.words", 0)
    )
    out["mcr.tracing.dirty_skip_share"] = _share(
        counters.get("transfer.objects_skipped_clean", 0),
        counters.get("transfer.objects_traced", 0),
    )
    plain_s = min(row["host_s"] for row in plain)
    fastest = min(traced, key=lambda row: row["host_s"])
    out["trace.iter_host_s"] = fastest["host_s"]
    out["trace.overhead_share"] = fastest["host_s"] / plain_s - 1
    out["trace.attributed_share"] = (
        sum(fastest["self_ms"].values()) / 1e3 / fastest["host_s"]
    )
    out["kernel.ksteps_per_host_s"] = out["kernel.steps"] / 1e3 / plain_s
    out["host.cpu_user_s"] = min(row["cpu_user_s"] for row in plain)
    out["host.cpu_sys_s"] = min(row["cpu_sys_s"] for row in plain)
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def child_main(args: argparse.Namespace) -> int:
    """Set up, measure ``args.workload`` in this process, print one JSON line."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from layers import Tracer

    from repro.mem import scan_backend

    tracer = Tracer()
    for _ in range(WARMUPS):
        _one_iteration(args, tracer)
    report: Dict[str, Any] = {
        "setup_s": time.perf_counter() - _PROCESS_START,
        "scan_backend": scan_backend.ACTIVE.name,
    }
    if args.iters != 0:  # --iters 0: a set-up sample, nothing else
        report.update(measure_in_child(args, tracer))
    print(json.dumps(report))
    return 0


def measure_in_child(args: argparse.Namespace, tracer: Any) -> Dict[str, Any]:
    """Whole iterations until --seconds are used (or exactly --iters).

    A traced pass alternates plain and traced iterations, so that both
    see the same allocator state and the same weather on the box and
    their difference is the tracing, not the order they ran in.
    """
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    started = time.perf_counter()

    def more() -> bool:
        if args.iters is not None:
            return len(plain) < args.iters
        return len(plain) < MIN_ITERS or time.perf_counter() - started < args.seconds

    while more():
        plain.append(_one_iteration(args, tracer))
        if args.trace:
            tracer.install()
            try:
                traced.append(_one_iteration(args, tracer))
            finally:
                tracer.uninstall()
    rows = plain + traced
    report: Dict[str, Any] = {}
    if args.trace:
        report["layers"] = _layer_metrics(plain, traced)
        if any(row["counters"] != traced[0]["counters"] for row in traced):
            rows[0]["problems"].append("counters differ between traced iterations")
    problems = [p for row in rows for p in row["problems"]]
    if any(row["results"] != rows[0]["results"] for row in rows):
        problems.append("virtual results differ between iterations")
    times = [row["host_s"] for row in plain]
    report.update(
        iters=len(plain),
        attempted=sum(row["attempted"] for row in rows),
        failed=sum(row["failed"] for row in rows),
        problems=problems,
        iter_host_s=min(times),
        iter_host_s_each=times,
        iter_host_s_quartiles=(
            statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        ),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        results=rows[0]["results"],
    )
    return report


# -- the parent: spawn children, assemble the result -----------------------------


def _spawn(
    args: argparse.Namespace,
    scratch: str,
    deadline: float,
    iters: Optional[int],
    trace: int,
    malloc_env: Dict[str, str] = MALLOC_ENV,
) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.abspath(__file__), "--child", "--scratch", scratch,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if iters is not None:
        command += ["--iters", str(iters)]
    try:
        # subprocess.run kills the child and waits for it when the timeout hits.
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env={**os.environ, **malloc_env},
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(
            f"perfbench: {args.workload}: not done within {DEADLINE_S:.0f} s, child killed"
        )
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in children; returns the measuring child's report."""
    deadline = time.perf_counter() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT)  # image files; removed
    try:
        report = _spawn(args, scratch, deadline, args.iters, args.trace)
        if args.trace:
            default = _spawn(
                args, scratch, deadline, DEFAULT_MALLOC_ITERS, trace=0, malloc_env={}
            )
            report["layers"]["host.default_malloc_iter_s"] = default["iter_host_s"]
            report["problems"] += default["problems"]
        else:  # setup_s is an end-to-end metric; a traced pass reports none
            setups = [report["setup_s"]] + [
                _spawn(args, scratch, deadline, iters=0, trace=0)["setup_s"]
                for _ in range(SETUPS - 1)
            ]
            report["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return report


def to_result(report: Dict[str, Any], spec: Dict[str, Any], trace: int) -> Dict[str, Any]:
    """The contract's result object: exactly the declared metrics of this mode."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = report["layers"] if trace else report
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }
    if trace:
        undeclared = sorted(set(values) - set(metrics))
        if undeclared:
            report["problems"].append(f"metrics not in BENCHMARK.json: {undeclared}")
    return {
        "correct": not report["problems"] and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _print_table(name: str, report: Dict[str, Any], result: Dict[str, Any]) -> None:
    share = result["failed"] / result["attempted"]
    print(f"== {name}: n={report['iters']} iterations, "
          f"ops_failed_share={share:g} ({result['failed']}/{result['attempted']}), "
          f"correct={result['correct']}")
    for metric, cell in result["metrics"].items():
        print(f"   {metric:44s} {cell['value']:>16.6f} {cell['unit']}")
    if "layers" not in report:
        p25, p50, p75 = report["iter_host_s_quartiles"]
        print(f"   {'iter_host_s.p25/.p50/.p75':44s} {p25:.6f} {p50:.6f} {p75:.6f} s")
        for metric, value in sorted(report["results"].items()):
            print(f"   {metric:44s} {value:>16.6f} (virtual clock / count)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: run_seconds)")
    parser.add_argument("--iters", type=int, default=None,
                        help="exactly this many timed iterations instead of --seconds "
                             "(0: set up and stop)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the result envelope here (default with "
                             "--workload all: perfbench/out/)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child_main(args)
    if args.iters == 0:
        parser.error("--iters must be at least 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro beside perfbench/ — nothing to measure",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    envelope: Dict[str, Any] = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "workloads": {},
    }
    result: Dict[str, Any] = {}
    for name in names:
        args.workload = name
        report = measure(args)
        result = to_result(report, spec, args.trace)
        for problem in report["problems"]:
            print(f"perfbench: {name}: PROBLEM: {problem}", file=sys.stderr)
        envelope["scan_backend"] = report.pop("scan_backend")
        envelope["workloads"][name] = {"n": report["iters"], **result, "report": report}
        if len(names) > 1 or args.out:
            _print_table(name, report, result)
    envelope["host_wall_s"] = time.perf_counter() - started
    out = args.out
    if out is None and len(names) > 1:
        os.makedirs(OUT, exist_ok=True)
        out = os.path.join(
            OUT, f"run-{envelope['commit'][:12]}-seed{args.seed}-trace{args.trace}.json"
        )
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, indent=1, sort_keys=True)
        print(f"envelope: {out}")
    if len(names) == 1:
        print(json.dumps(result))
    return 0 if all(w["correct"] for w in envelope["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
