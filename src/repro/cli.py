"""Command-line front end: ``python -m repro <command>``.

Commands:

* ``demo [server]``          — boot a server, serve traffic, live-update it,
  and print the operator report (default: simple).
* ``profile [server]``       — run the quiescence profiler and print the
  per-thread report (default: all four evaluation servers).
* ``bench <experiment>``     — regenerate one paper table/figure (any
  key of ``BENCH_EXPERIMENTS`` below — ``bench --help`` lists them — or
  ``all``) and exit 1 when one of its ``verdicts`` fails; ``--json``
  also writes ``BENCH_<experiment>.json`` through ``repro.obs.export``;
  ``--smoke`` runs a bench's reduced subset where it defines one;
  ``--seed N`` reseeds the fuzzer's scenario draws.  The failover and
  migration fault drills run in ``bench faultmatrix`` only.
* ``replay <path>``          — re-execute a recorded trace (or the trace
  referenced by a ``blackbox.json``) and assert bit-identical
  equivalence; ``--to-failure`` stops at the failing fault site and
  prints the open span stack; ``--export BASE`` writes a Chrome trace
  and a JSON report of the replayed update.
* ``trace [server]``         — live-update a server under an installed
  observability collector and print the span tree + counters;
  ``--export FILE`` writes a Chrome ``trace_event`` JSON (Perfetto).
* ``metrics [server]``       — live-update a server *mid-flight* under its
  small workload and print the client-perceived verdict: latency
  histogram percentiles, the blackout interval, the SLO verdict, and a
  Prometheus text exposition; ``--json`` writes ``METRICS_<server>.json``.
* ``status [server]``        — boot a server and print ``mcr-ctl status``.
* ``checkpoint [server]``    — boot a server, serve a little traffic, and
  write a durable checkpoint image (``--out FILE``, ``--serve N``).
* ``restore <image>``        — restore a checkpoint image written by
  ``checkpoint`` (possibly by *another* Python process), fingerprint-
  verify the restored tree against the image, and optionally resume it
  and serve ``--serve N`` requests to prove the graft is live.
"""

from __future__ import annotations

import argparse
import importlib
import sys as _host_sys
from typing import List, Optional

import repro

# Replies ``metrics`` waits for before firing the update; every row's small
# workload sends more, so in-flight requests span the blackout.
WARM_REPLIES = 2


def cmd_demo(args) -> int:
    from repro.mcr.diagnostics import describe_update

    name = args.server
    world = repro.boot(name)
    print(f"{name} v1 running on simulated port {world.port}")
    workload = world.spec.small_workload({})
    workload.run(world.kernel)
    print(f"workload done: {workload.completed} ops, {workload.errors} errors")
    result = repro.live_update(world, version=2)
    print()
    print(describe_update(result))
    return 0 if result.committed else 1


def cmd_profile(args) -> int:
    from repro.mcr.quiescence.profiler import profile_program
    from repro.servers.catalog import lookup

    targets = [args.server] if args.server else ["httpd", "nginx", "vsftpd", "opensshd"]
    for name in targets:
        spec = lookup(name)
        report = profile_program(
            spec.make_program, spec.module.setup_world, spec.profile
        )
        print(report.render())
        print()
    return 0


# Experiment name -> (module under ``repro.bench``, its run function, the
# ``bench`` options that function takes).  Every module renders its results
# with ``render``; one that has ``verdicts`` prints all of them on one
# ``verdicts:`` line under its tables and fails the command when any of
# them is false.
BENCH_EXPERIMENTS = {
    "table1": ("table1", "run_table1", ()),
    "table2": ("table2", "run_table2", ()),
    "table3": ("table3", "run_table3", ()),
    "figure3": ("figure3", "run_figure3", ("smoke",)),
    "spec": ("spec2006", "run_spec", ()),
    "memusage": ("memusage", "run_memusage", ()),
    "updatetime": ("updatetime", "run_updatetime", ("smoke",)),
    "ablations": ("ablations", "run_all", ()),
    "scanperf": ("scanperf", "run_scanperf", ("smoke",)),
    "faultmatrix": ("faultmatrix", "run_faultmatrix", ("smoke", "blackbox_path")),
    "fleetroll": ("fleetroll", "run_fleetroll", ("smoke",)),
    "failover": ("failover", "run_failover", ("smoke",)),
    "migrate": ("migrate", "run_migrate", ("smoke",)),
    "fuzz": ("fuzz", "run_fuzz", ("smoke", "seed")),
}


def cmd_bench(args) -> int:
    from repro.bench.reporting import verdict_line, write_bench_json

    names = list(BENCH_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    exit_code = 0
    for name in names:
        module_name, run, takes = BENCH_EXPERIMENTS[name]
        module = importlib.import_module(f"repro.bench.{module_name}")
        options = {
            "smoke": args.smoke,
            "seed": args.seed,
            # Post-mortems are named after the bench's own artifact, never a
            # shared blackbox.json that concurrent benches in one directory
            # would stomp or that a run would dirty the checkout with.
            "blackbox_path": f"BENCH_{name}_blackbox.json",
        }
        results = getattr(module, run)(**{key: options[key] for key in takes})
        verdicts = getattr(module, "verdicts", None)
        checks = verdicts(results) if verdicts else {}
        print(module.render(results), end="\n\n")
        if checks:
            print(verdict_line(checks), end="\n\n")
        if args.json:
            print(f"wrote {write_bench_json(name, results)}")
        failed = [key for key, ok in checks.items() if not ok]
        if failed:
            print(f"bench {name}: failed verdicts: {', '.join(failed)}", file=_host_sys.stderr)
            exit_code = 1
    return exit_code


def cmd_trace(args) -> int:
    from repro import obs
    from repro.obs.export import chrome_trace, write_json
    from repro.obs.spans import render_tree

    name = args.server
    world = repro.boot(name)
    with obs.collecting(world.kernel.clock) as collector:
        world.spec.small_workload({}).run(world.kernel)
        result = repro.live_update(world, version=2)
    status = "committed" if result.committed else "ROLLED BACK"
    print(f"{name}: update {status} in {result.total_ms():.2f} ms")
    if result.retries:
        print(f"quiescence retries: {result.retries}")
    if result.rolled_back:
        print(
            f"failure site: {result.failure_site or 'unknown'}; "
            f"old-version fingerprint verified: {result.rollback_verified}"
        )
    if result.spans is not None:
        print()
        print(render_tree(result.spans))
    counters = collector.counters.snapshot()
    print()
    print(f"counters ({len(counters)}):")
    for key, value in counters.items():
        print(f"  {key:<32} {value}")
    print()
    print(
        f"events: {collector.events.emitted} emitted, "
        f"{collector.events.dropped} dropped"
    )
    if args.export:
        try:
            write_json(
                args.export, chrome_trace(collector, process_name=f"repro:{name}")
            )
        except OSError as error:
            print(f"cannot write {args.export}: {error}", file=_host_sys.stderr)
            return 1
        print(f"wrote {args.export}")
    return 0 if result.committed else 1


def cmd_metrics(args) -> int:
    """Mid-flight live update under the small workload; report the client view."""
    from repro import obs
    from repro.bench.harness import update_midflight
    from repro.obs.export import write_json
    from repro.obs.metrics import prometheus_text

    name = args.server
    world = repro.boot(name)
    workload = world.spec.small_workload({})
    with obs.collecting(world.kernel.clock) as collector:
        result, perceived, _wall_s = update_midflight(
            world, workload, None, WARM_REPLIES
        )
    summary = perceived.to_dict()
    status = "committed" if result.committed else "ROLLED BACK"
    print(f"{name}: update {status} in {result.total_ms():.2f} ms")
    print(
        f"client-perceived: {summary['requests']} requests, "
        f"p50 {summary['p50_ms']:.2f} ms, p95 {summary['p95_ms']:.2f} ms, "
        f"p99 {summary['p99_ms']:.2f} ms, max {summary['max_ms']:.2f} ms"
    )
    verdict = "met" if summary["slo_ok"] else "violated"
    print(
        f"blackout: {summary['blackout_ms']:.2f} ms "
        f"(budget {summary['downtime_budget_ms']:.0f} ms) -> SLO {verdict}"
    )
    print()
    print(prometheus_text(counters=collector.counters, metrics=collector.metrics))
    if args.json:
        path = f"METRICS_{name}.json"
        write_json(
            path,
            {
                "server": name,
                "committed": result.committed,
                "workload_errors": workload.errors,
                "client": summary,
                "slo_verdict": verdict,
                "metrics": collector.metrics.snapshot(),
            },
        )
        print(f"wrote {path}")
    return 0 if result.committed else 1


def cmd_replay(args) -> int:
    """Re-execute a recorded run and assert bit-identical equivalence.

    Accepts either a trace file or a ``blackbox.json`` with an embedded
    trace reference (every black box dumped while a recording was active
    carries one).  ``--to-failure`` stops at the failing fault site and
    prints the open span stack there; ``--export`` additionally writes a
    Chrome trace of the replayed update plus a JSON report.
    """
    from repro.replayer import replay_path

    try:
        report = replay_path(
            args.path, to_failure=args.to_failure, export=args.export
        )
    except (OSError, ValueError) as error:
        print(f"cannot replay {args.path}: {error}", file=_host_sys.stderr)
        return 2
    print(report.render())
    return 0 if report.equivalent else 1


def cmd_status(args) -> int:
    from repro.mcr.ctl import McrCtl

    world = repro.boot(args.server)
    for key, value in McrCtl(world.kernel, world.session).status().items():
        print(f"{key}: {value}")
    return 0


def cmd_checkpoint(args) -> int:
    """Boot a server, mutate it with traffic, write a durable image."""
    from repro.checkpoint import checkpoint_node, write_image
    from repro.fleet.drill import SETTLE_NS
    from repro.servers.node import Node

    node = Node.boot(args.server)
    if args.serve:
        node.serve(args.serve)
        node.drain()
        node.settle(SETTLE_NS)  # workers release served-connection fds
    image = checkpoint_node(node)
    size = write_image(image, args.out)
    digest = image.fingerprint.summary()
    print(f"{args.server}: image {image.image_id} "
          f"({size} bytes on disk: {image.stored_bytes()} resident of "
          f"{image.total_bytes()} described)")
    print(f"served {node.completed} requests before capture "
          f"({node.lost} lost)")
    print(f"fingerprint: {digest}")
    print(f"wrote {args.out}")
    node.teardown()
    return 0


def cmd_restore(args) -> int:
    """Restore a durable image — in a different process than wrote it."""
    from repro.checkpoint import read_image, restore_image, resume_node
    from repro.errors import ImageError

    try:
        image = read_image(args.path)
        node = restore_image(image)
    except ImageError as error:
        print(f"cannot restore {args.path}: {error}", file=_host_sys.stderr)
        return 2
    verified = node.fingerprint().matches(image.fingerprint)
    state = "verified" if verified else "MISMATCH"
    print(f"{image.server}: restored image {image.image_id} "
          f"({image.stored_bytes()} resident of {image.total_bytes()} "
          f"described bytes) -> fingerprint {state}")
    exit_code = 0 if verified else 1
    if args.serve and verified:
        resume_node(node)
        node.serve(args.serve)
        node.drain()
        print(f"resumed: served {node.completed}/{args.serve} requests "
              f"({node.lost} lost)")
        if node.completed != args.serve:
            exit_code = 1
    node.teardown()
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    from repro.servers.catalog import CATALOG

    servers = tuple(CATALOG)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mutable Checkpoint-Restart reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="boot, serve, live-update, report")
    demo.add_argument("server", nargs="?", default="simple", choices=servers)
    demo.set_defaults(fn=cmd_demo)

    profile = subparsers.add_parser("profile", help="run the quiescence profiler")
    profile.add_argument("server", nargs="?", default=None, choices=servers)
    profile.set_defaults(fn=cmd_profile)

    bench = subparsers.add_parser("bench", help="regenerate a paper experiment")
    bench.add_argument(
        "experiment",
        choices=[*BENCH_EXPERIMENTS, "all"],
    )
    bench.add_argument(
        "--json",
        action="store_true",
        help="also write BENCH_<experiment>.json for each experiment",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help=", ".join(
            name for name, (_module, _run, takes) in BENCH_EXPERIMENTS.items()
            if "smoke" in takes
        ) + ": run the reduced subset",
    )
    bench.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fuzz: master seed for the randomized scenario draws",
    )
    bench.set_defaults(fn=cmd_bench)

    trace = subparsers.add_parser(
        "trace", help="live-update under a collector; print spans + counters"
    )
    trace.add_argument("server", nargs="?", default="simple", choices=servers)
    trace.add_argument(
        "--export",
        metavar="FILE",
        default=None,
        help="write a Chrome trace_event JSON (open in Perfetto)",
    )
    trace.set_defaults(fn=cmd_trace)

    metrics = subparsers.add_parser(
        "metrics",
        help="mid-flight live update; print the client-perceived verdict",
    )
    metrics.add_argument("server", nargs="?", default="simple", choices=servers)
    metrics.add_argument(
        "--json",
        action="store_true",
        help="also write METRICS_<server>.json",
    )
    metrics.set_defaults(fn=cmd_metrics)

    replay = subparsers.add_parser(
        "replay",
        help="re-execute a recorded trace (or a blackbox's embedded trace) "
             "and assert bit-identical equivalence",
    )
    replay.add_argument(
        "path", help="a *.trace.json file or a blackbox JSON with a trace ref"
    )
    replay.add_argument(
        "--to-failure",
        action="store_true",
        dest="to_failure",
        help="stop at the failing fault site; print the open span stack there",
    )
    replay.add_argument(
        "--export",
        metavar="BASE",
        default=None,
        help="write BASE.chrome.json (Perfetto) and BASE.report.json",
    )
    replay.set_defaults(fn=cmd_replay)

    status = subparsers.add_parser("status", help="mcr-ctl status of a server")
    status.add_argument("server", nargs="?", default="simple", choices=servers)
    status.set_defaults(fn=cmd_status)

    checkpoint = subparsers.add_parser(
        "checkpoint", help="serve traffic, then write a durable image"
    )
    checkpoint.add_argument("server", nargs="?", default="simple", choices=servers)
    checkpoint.add_argument(
        "--out", metavar="FILE", default="checkpoint.img",
        help="where to write the image (default: checkpoint.img)",
    )
    checkpoint.add_argument(
        "--serve", type=int, default=8, metavar="N",
        help="requests to serve before capture (mutates server state; none "
             "where the server's catalog row has no request script)",
    )
    checkpoint.set_defaults(fn=cmd_checkpoint)

    restore = subparsers.add_parser(
        "restore",
        help="restore a durable image (cross-process) and verify it",
    )
    restore.add_argument("path", help="image file written by `repro checkpoint`")
    restore.add_argument(
        "--serve", type=int, default=0, metavar="N",
        help="after verification, resume the node and serve N requests",
    )
    restore.set_defaults(fn=cmd_restore)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
