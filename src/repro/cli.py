"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    The Table I benchmark inventory.
``config``
    The simulated GPU configuration (Table II).
``run BENCHMARK --scheme SCHEME``
    Simulate one benchmark under one scheme and print its summary metrics.
    ``--json`` prints the summary machine-readably; ``--trace FILE`` /
    ``--chrome-trace FILE`` export the structured event stream;
    ``--profile`` appends harness wall-clock timings.
``audit BENCHMARK --scheme spawn``
    Run with tracing and print the SPAWN decision audit: per-benchmark
    prediction-error statistics (predicted vs. actual ``t_child``).
    ``BENCHMARK`` may be ``all``.
``sweep BENCHMARK``
    The Fig. 5 threshold sweep for one benchmark.
``experiment ID``
    Regenerate one paper table/figure (``all`` runs everything).
``suite --jobs N``
    Run the complete evaluation suite, fanning the declared run-set out
    across ``N`` worker processes first and persisting every result in
    the on-disk store (``results.db`` in ``.repro-cache/`` or
    ``$REPRO_CACHE_DIR``); a warm store makes a repeat suite purely a
    read, and a killed suite resumes where it stopped.
``check [--update-golden]``
    Conformance: simulate the pinned golden benchmark x scheme matrix with
    the runtime invariant checker attached and diff each event trace
    against the committed golden corpus (``tests/golden/``), naming the
    first diverging event.  ``--update-golden`` rewrites the corpus after
    an intentional behaviour change.
``cache [stats|clear]``
    Inspect or empty the persistent result store.
``serve [REQUESTS.json]``
    Drive the in-process simulation service with scripted or synthetic
    traffic: duplicate requests are coalesced, cache hits are answered
    without touching the pool, and everything else is batched onto the
    pool, or shed once ``--max-queue`` jobs are admitted and unfinished.
    ``--stats`` prints the routing ledger and latency percentiles;
    ``--stats-json FILE`` saves them machine-readably.  Honours
    ``REPRO_FAULTS`` like ``suite``.

Examples
--------
::

    python -m repro run BFS-graph500 --scheme spawn
    python -m repro run BFS-citation --trace bfs.jsonl --chrome-trace bfs.json
    python -m repro audit all --scheme spawn
    python -m repro sweep SSSP-citation
    python -m repro experiment fig15
    python -m repro suite --jobs 4
    python -m repro check
    python -m repro cache stats
    python -m repro serve --synthetic 100 --max-queue 16 --stats
    python -m repro serve requests.json --jobs 4 --stats-json stats.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.harness.report import format_table
from repro.harness.runner import RunConfig, Runner
from repro.harness.sweep import threshold_sweep
from repro.obs.export import write_json_atomic


def _add_store_argument(
    parser: argparse.ArgumentParser, *, no_store: bool = False
) -> None:
    """The shared ``--store URL`` flag.

    Every store-touching command accepts the same spelling of the one
    SQLite database file: ``sqlite://PATH.db`` or the bare ``PATH.db``.
    """
    parser.add_argument(
        "--store", default=None, metavar="URL",
        help="result store: sqlite://PATH.db or PATH.db "
             "(default: results.db in $REPRO_CACHE_DIR or .repro-cache)",
    )
    if no_store:
        parser.add_argument(
            "--no-store", action="store_true",
            help="skip the persistent result store entirely",
        )


def _resolve_store_url(args, *, default: bool):
    """``(use_store, url)`` from ``--store``/``--no-store``.

    ``default=True`` opens the default store when no flag was given
    (suite/serve/cache); ``default=False`` stays storeless
    unless the user named one (run — historically cacheless).
    ``url`` may be None with ``use_store=True``, meaning "the default
    location" (:func:`repro.harness.store.open_store` resolves it).
    """
    if getattr(args, "no_store", False):
        return False, None
    url = getattr(args, "store", None)
    if url is None and not default:
        return False, None
    return True, url


def _open_cli_store(args, *, default: bool):
    """A :class:`ResultStore` (or None) from the shared store flags."""
    from repro.harness.store import open_store

    use, url = _resolve_store_url(args, default=default)
    return open_store(url) if use else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPAWN (HPCA 2017) reproduction: simulator, benchmarks, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table I benchmarks")
    sub.add_parser("config", help="print the simulated GPU configuration (Table II)")

    run = sub.add_parser("run", help="run one benchmark under one scheme")
    run.add_argument("benchmark", help="benchmark name, e.g. BFS-graph500")
    run.add_argument(
        "--scheme",
        default="spawn",
        help="flat | baseline-dp | spawn | dtbl | threshold:<T> (default: spawn)",
    )
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--cta-threads", type=int, default=None,
                     help="child CTA size override (Fig. 7)")
    run.add_argument("--stream-policy", default="per-child",
                     choices=["per-child", "per-parent-cta"])
    run.add_argument("--json", action="store_true",
                     help="print the summary as JSON instead of a table")
    run.add_argument("--trace", metavar="FILE", default=None,
                     help="dump the structured event trace as JSONL")
    run.add_argument("--chrome-trace", metavar="FILE", default=None,
                     help="export a chrome://tracing / Perfetto trace")
    run.add_argument("--profile", action="store_true",
                     help="print harness wall-clock timings after the run")
    _add_store_argument(run)

    audit = sub.add_parser(
        "audit", help="SPAWN decision audit: prediction error vs. reality"
    )
    audit.add_argument("benchmark", help="benchmark name, or 'all'")
    audit.add_argument("--scheme", default="spawn",
                       help="scheme to audit (default: spawn)")
    audit.add_argument("--seed", type=int, default=1)
    audit.add_argument("--json", action="store_true",
                       help="print the audit statistics as JSON")

    sweep = sub.add_parser("sweep", help="threshold sweep (Fig. 5 panel)")
    sweep.add_argument("benchmark")
    sweep.add_argument("--seed", type=int, default=1)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("id", help="table1, table2, fig01..fig21, or 'all'")
    exp.add_argument("--seed", type=int, default=1)

    suite = sub.add_parser(
        "suite", help="run every experiment, fanned out over worker processes"
    )
    suite.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: all cores)")
    suite.add_argument("--seed", type=int, default=1)
    suite.add_argument("--experiments", default=None, metavar="ID[,ID...]",
                       help="comma-separated subset (default: the full suite)")
    _add_store_argument(suite, no_store=True)
    suite.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-task timeout; a hung worker is retried "
                            "instead of hanging the suite (default: none)")
    suite.add_argument("--max-retries", type=int, default=2, metavar="N",
                       help="re-dispatches per task after its first failed "
                            "attempt (default: 2)")
    suite.add_argument("--fail-fast", action="store_true",
                       help="abort on the first quarantined run instead of "
                            "completing the rest of the suite")

    check = sub.add_parser(
        "check",
        help="conformance: invariant-check the golden matrix and diff traces",
    )
    check.add_argument(
        "--update-golden", action="store_true",
        help="rewrite the golden trace corpus from the current simulator "
             "(review the diff as a semantic change!)",
    )
    check.add_argument(
        "--golden-dir", default=None, metavar="DIR",
        help="golden corpus location (default: tests/golden/ in the repo)",
    )
    check.add_argument(
        "--benchmark", default=None, metavar="NAME",
        help="restrict to one benchmark of the matrix",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent result store"
    )
    cache.add_argument("action", nargs="?", default="stats",
                       choices=["stats", "clear"])
    _add_store_argument(cache)

    serve = sub.add_parser(
        "serve",
        help="drive the batched async simulation service with scripted traffic",
    )
    serve.add_argument(
        "requests", nargs="?", default=None, metavar="REQUESTS.json",
        help="scripted request file (JSON array or JSONL of "
             '{"benchmark", "scheme", "seed", "at"} objects); omit to '
             "use --synthetic traffic",
    )
    serve.add_argument("--jobs", type=int, default=2,
                       help="pool worker processes per batch (default: 2)")
    serve.add_argument("--max-batch", type=int, default=8, metavar="N",
                       help="jobs per pool dispatch (default: 8)")
    serve.add_argument("--max-queue", type=int, default=None, metavar="N",
                       help="shed a request that neither coalesces nor hits "
                            "the cache while N jobs are admitted and "
                            "unfinished (default: unbounded)")
    serve.add_argument("--synthetic", type=int, default=20, metavar="N",
                       help="without a request file, generate N seeded "
                            "requests (default: 20)")
    serve.add_argument("--traffic-seed", type=int, default=1,
                       help="seed for --synthetic traffic (default: 1)")
    _add_store_argument(serve, no_store=True)
    serve.add_argument("--stats", action="store_true",
                       help="print the routing ledger and latency "
                            "percentiles after draining")
    serve.add_argument("--stats-json", default=None, metavar="FILE",
                       help="write the service stats as JSON")

    plot = sub.add_parser(
        "plot", help="ASCII concurrency timeline for one run (Fig. 6/19 style)"
    )
    plot.add_argument("benchmark")
    plot.add_argument("--scheme", default="baseline-dp")
    plot.add_argument("--seed", type=int, default=1)
    return parser


def cmd_list(out) -> int:
    from repro.experiments import tables

    print(tables.run_table1().table(), file=out)
    return 0


def cmd_config(out) -> int:
    from repro.experiments import tables

    print(tables.run_table2().table(), file=out)
    return 0


def cmd_run(args, out) -> int:
    from repro.obs import Tracer, write_chrome_trace, write_jsonl

    # The store stays off unless requested: `repro run` is historically
    # cacheless, and quick one-offs should not populate a store unasked.
    runner = Runner(store=_open_cli_store(args, default=False))
    config = RunConfig(
        benchmark=args.benchmark,
        scheme=args.scheme,
        seed=args.seed,
        cta_threads=args.cta_threads,
        stream_policy=args.stream_policy,
    )
    tracing = args.trace is not None or args.chrome_trace is not None
    tracer = Tracer() if tracing else None
    result = runner.run(config, tracer=tracer)
    summary = dict(result.summary())
    if args.scheme != "flat":
        flat = runner.run(dataclasses.replace(config, scheme="flat"))
        summary["speedup_vs_flat"] = flat.makespan / result.makespan
    if tracer is not None:
        if args.trace:
            count = write_jsonl(tracer.events(), args.trace)
            print(f"wrote {count} events to {args.trace}", file=sys.stderr)
        if args.chrome_trace:
            count = write_chrome_trace(tracer.events(), args.chrome_trace)
            print(
                f"wrote {count} trace entries to {args.chrome_trace} "
                "(load in chrome://tracing or Perfetto)",
                file=sys.stderr,
            )
    if args.json:
        print(json.dumps(summary, sort_keys=True), file=out)
    else:
        print(
            format_table(
                ["metric", "value"],
                list(summary.items()),
                title=f"{args.benchmark} / {args.scheme} (seed {args.seed})",
            ),
            file=out,
        )
    if args.profile:
        timers = []
        for metric, labels, hist in runner.metrics.collect():
            if metric == "runner.sim_seconds":
                run = dict(labels)
                timers.append((f"sim.run/{run['benchmark']}/{run['scheme']}", hist))
        timers.sort(key=lambda timer: timer[1].sum, reverse=True)
        print(file=out)
        print(
            format_table(
                ["timer", "calls", "total_s", "mean_s", "max_s"],
                [
                    (name, h.count, f"{h.sum:.3f}", f"{h.mean:.3f}", f"{h.max:.3f}")
                    for name, h in timers
                ],
                title="harness wall-clock profile",
            ),
            file=out,
        )
    return 0


def cmd_audit(args, out) -> int:
    from repro.obs import DecisionAudit, Tracer
    from repro.workloads import benchmark_names

    if args.benchmark == "all":
        names = list(benchmark_names())
    else:
        names = [args.benchmark]
    all_stats = {}
    for name in names:
        runner = Runner()
        tracer = Tracer()
        config = RunConfig(benchmark=name, scheme=args.scheme, seed=args.seed)
        runner.run(config, tracer=tracer)
        all_stats[name] = DecisionAudit.from_events(tracer.events()).stats()
    if args.json:
        print(json.dumps(all_stats, sort_keys=True), file=out)
        return 0
    rows = []
    for name, s in all_stats.items():
        rows.append(
            (
                name,
                int(s["decisions"]),
                int(s["launched"]),
                int(s["declined"]),
                int(s["bootstrap"]),
                int(s["joined"]),
                f"{100 * s['mean_rel_error']:.1f}%" if "mean_rel_error" in s else "-",
                f"{100 * s['max_rel_error']:.1f}%" if "max_rel_error" in s else "-",
                f"{s['mean_bias']:+.0f}" if "mean_bias" in s else "-",
            )
        )
    print(
        format_table(
            [
                "benchmark",
                "decisions",
                "launched",
                "declined",
                "bootstrap",
                "joined",
                "mean_err",
                "max_err",
                "bias_cyc",
            ],
            rows,
            title=(
                f"{args.scheme} decision audit (seed {args.seed}): "
                "predicted vs. actual t_child"
            ),
        ),
        file=out,
    )
    return 0


def cmd_sweep(args, out) -> int:
    runner = Runner()
    sweep = threshold_sweep(runner, args.benchmark, seed=args.seed)
    best = sweep.best()
    rows = [
        (
            p.threshold,
            f"{100 * p.offload_fraction:.0f}%",
            round(p.speedup_over_flat, 3),
            p.child_kernels,
            "*" if p is best else "",
        )
        for p in sweep.points
    ]
    print(
        format_table(
            ["THRESHOLD", "offloaded", "speedup vs flat", "child kernels", "best"],
            rows,
            title=f"{args.benchmark}: threshold sweep (seed {args.seed})",
        ),
        file=out,
    )
    return 0


def cmd_experiment(args, out) -> int:
    from repro.experiments import ALL_EXPERIMENTS, EXTRA_EXPERIMENTS, run_all

    if args.id == "all":
        for result in run_all(seed=args.seed):
            print(result.table(), file=out)
            print(file=out)
        return 0
    entry = ALL_EXPERIMENTS.get(args.id) or EXTRA_EXPERIMENTS.get(args.id)
    if entry is None:
        known = ", ".join([*ALL_EXPERIMENTS, *EXTRA_EXPERIMENTS])
        print(f"unknown experiment {args.id!r}; known: {known}, all", file=sys.stderr)
        return 2
    print(entry(Runner(), args.seed).table(), file=out)
    return 0


def cmd_suite(args, out) -> int:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.plans import suite_plan
    from repro.harness.faults import FaultPlan
    from repro.harness.parallel import ExecutionPolicy, ParallelRunner, default_jobs

    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        print(f"error: --jobs must be >= 1, got {jobs}", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print(f"error: --max-retries must be >= 0, got {args.max_retries}",
              file=sys.stderr)
        return 2
    store = _open_cli_store(args, default=True)
    runner = Runner(store=store)
    if args.experiments:
        names = [name.strip() for name in args.experiments.split(",") if name.strip()]
        unknown = [name for name in names if name not in ALL_EXPERIMENTS]
        if unknown:
            print(
                f"unknown experiments: {', '.join(unknown)}; "
                f"known: {', '.join(ALL_EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2
    else:
        names = list(ALL_EXPERIMENTS)
    policy = ExecutionPolicy(
        timeout=args.timeout,
        max_retries=args.max_retries,
        fail_fast=args.fail_fast,
    )
    faults = FaultPlan.from_env()
    if faults is not None:
        print(f"chaos: injecting faults {faults.to_dict()}", file=sys.stderr)
    plan = suite_plan(args.seed, names)
    parallel = ParallelRunner(runner, policy=policy, faults=faults)
    report = parallel.run_suite(plan, jobs=jobs)
    if report.failures or report.skipped:
        rows = [
            (o.config.benchmark, o.config.scheme, o.status, o.attempts,
             o.error or "")
            for o in report.outcomes
            if o.status != "ok"
        ]
        print(
            format_table(
                ["benchmark", "scheme", "status", "attempts", "error"],
                rows,
                title="quarantined runs (suite continued without them)",
            ),
            file=sys.stderr,
        )
        if args.fail_fast:
            print("suite aborted (--fail-fast)", file=sys.stderr)
            return 1
    failed_experiments = []
    for name in names:
        try:
            result = ALL_EXPERIMENTS[name](runner, args.seed)
        except ReproError as exc:
            failed_experiments.append((name, str(exc)))
            print(f"experiment {name} failed: {exc}", file=sys.stderr)
            continue
        print(result.table(), file=out)
        print(file=out)
    counters = runner.metrics.to_dict()["counters"]
    print(
        "suite done: "
        f"jobs={jobs} "
        f"fanned_out={len(report.outcomes)} "
        f"resumed={report.resumed} "
        f"retries={report.retries} "
        f"timeouts={report.timeouts} "
        f"worker_crashes={report.worker_crashes} "
        f"quarantined={report.quarantined} "
        f"simulated_inline={int(counters.get('runner.cache_misses', 0))} "
        f"memory_hits={int(counters.get('runner.cache_hits', 0))} "
        f"disk_hits={int(counters.get('runner.disk_hits', 0))}",
        file=sys.stderr,
    )
    return 1 if (report.failures or failed_experiments) else 0


def cmd_check(args, out) -> int:
    from repro.check.golden import (
        GOLDEN_MATRIX,
        GOLDEN_SEED,
        canonical_events,
        default_golden_dir,
        diff_traces,
        golden_path,
        load_golden,
        record_trace,
        write_golden,
    )

    golden_dir = args.golden_dir if args.golden_dir else default_golden_dir()
    matrix = [
        pair for pair in GOLDEN_MATRIX
        if args.benchmark is None or pair[0] == args.benchmark
    ]
    if not matrix:
        print(
            f"error: benchmark {args.benchmark!r} is not in the golden matrix",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for benchmark, scheme in matrix:
        checker, result = record_trace(benchmark, scheme)
        label = f"{benchmark}/{scheme}"
        if checker.violations:
            failures += 1
            print(
                f"FAIL {label}: {len(checker.violations)} invariant "
                "violation(s)",
                file=out,
            )
            for violation in checker.violations[:5]:
                print(f"  {violation}", file=out)
            continue
        events = canonical_events(checker.events())
        path = golden_path(golden_dir, benchmark, scheme)
        if args.update_golden:
            write_golden(
                path,
                events,
                benchmark=benchmark,
                scheme=scheme,
                seed=GOLDEN_SEED,
                makespan=result.makespan,
            )
            print(f"wrote {path} ({len(events)} events)", file=out)
            continue
        _, expected = load_golden(path)
        divergence = diff_traces(expected, events)
        if divergence is not None:
            failures += 1
            print(f"FAIL {label}: {divergence}", file=out)
        else:
            print(
                f"ok   {label}: {len(events)} events, invariants clean, "
                "matches golden",
                file=out,
            )
    if failures:
        print(f"{failures} of {len(matrix)} matrix cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_cache(args, out) -> int:
    store = _open_cli_store(args, default=True)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.url}", file=out)
        return 0
    stats = store.stats()
    print(
        format_table(
            ["field", "value"],
            [
                ("store", store.url),
                ("root", stats.root),
                ("entries", stats.entries),
                ("total_bytes", stats.total_bytes),
            ],
            title="persistent result store",
        ),
        file=out,
    )
    return 0


def _latency_rows(latency: dict) -> list:
    """Table rows (span, count, p50/p95/p99 in ms) from a latency digest."""
    rows = []
    sections = [
        ("end_to_end", latency.get("end_to_end") or {}),
        ("queue_wait", latency.get("queue_wait") or {}),
    ]
    sections.extend(
        (f"route:{route}", summary)
        for route, summary in sorted((latency.get("routes") or {}).items())
    )
    for name, summary in sections:
        if not summary.get("count"):
            continue
        rows.append(
            (
                name,
                summary["count"],
                f"{summary['p50'] * 1000:.2f}",
                f"{summary['p95'] * 1000:.2f}",
                f"{summary['p99'] * 1000:.2f}",
            )
        )
    return rows


def cmd_serve(args, out) -> int:
    import asyncio

    from repro.harness.faults import FaultPlan
    from repro.service import (
        ServiceConfig,
        ServiceOverloaded,
        SimulationService,
        drive_service,
        generate_traffic,
        load_requests,
    )

    if args.requests is not None:
        requests = load_requests(args.requests)
        source = args.requests
    else:
        if args.synthetic < 1:
            print(
                f"error: --synthetic must be >= 1, got {args.synthetic}",
                file=sys.stderr,
            )
            return 2
        requests = generate_traffic(args.synthetic, seed=args.traffic_seed)
        source = f"synthetic (seed {args.traffic_seed})"
    if not requests:
        print("error: no requests to serve", file=sys.stderr)
        return 2
    config = ServiceConfig(
        jobs=args.jobs, max_batch=args.max_batch, max_queue=args.max_queue
    )
    faults = FaultPlan.from_env()
    if faults is not None:
        print(f"chaos: injecting faults {faults.to_dict()}", file=sys.stderr)

    service = SimulationService(
        Runner(store=_open_cli_store(args, default=True)),
        config=config,
        faults=faults,
    )

    async def drive():
        async with service:
            outcomes = await drive_service(service, requests)
        return outcomes, service.stats()

    outcomes, stats = asyncio.run(drive())
    for request, outcome in zip(requests, outcomes):
        if isinstance(outcome, ServiceOverloaded):
            print(
                f"shed: {request.benchmark}/{request.scheme} "
                f"seed {request.seed}",
                file=sys.stderr,
            )
    print(
        f"served {len(requests)} requests from {source}: "
        f"completed={stats.completed} failed={stats.failed} "
        f"shed={stats.shed} coalesced={stats.coalesced} "
        f"cache_hits={stats.cache_hits} "
        f"batches={stats.batches} lost={stats.lost}",
        file=sys.stderr,
    )
    if args.stats:
        payload = stats.to_dict()
        latency = payload.pop("latency")
        print(
            format_table(
                ["counter", "value"],
                sorted(payload.items()),
                title="service routing ledger",
            ),
            file=out,
        )
        latency_rows = _latency_rows(latency)
        if latency_rows:
            print(file=out)
            print(
                format_table(
                    ["span", "count", "p50_ms", "p95_ms", "p99_ms"],
                    latency_rows,
                    title="service latency percentiles",
                ),
                file=out,
            )
    if args.stats_json:
        write_json_atomic(stats.to_dict(), args.stats_json)
        print(f"wrote {args.stats_json}", file=sys.stderr)
    if stats.lost:
        print(f"error: {stats.lost} submissions lost", file=sys.stderr)
        return 1
    return 1 if stats.failed else 0


def cmd_plot(args, out) -> int:
    from repro.harness.plotting import timeline

    runner = Runner()
    result = runner.run(
        RunConfig(benchmark=args.benchmark, scheme=args.scheme, seed=args.seed)
    )
    trace = result.stats.trace
    print(
        timeline(
            [(s.time, s.total_ctas) for s in trace],
            title=f"{args.benchmark} / {args.scheme}: concurrent CTAs over time",
        ),
        file=out,
    )
    print(file=out)
    print(
        timeline(
            [(s.time, s.utilization) for s in trace],
            title="resource utilization over time",
        ),
        file=out,
    )
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(out)
        if args.command == "config":
            return cmd_config(out)
        if args.command == "run":
            return cmd_run(args, out)
        if args.command == "audit":
            return cmd_audit(args, out)
        if args.command == "sweep":
            return cmd_sweep(args, out)
        if args.command == "experiment":
            return cmd_experiment(args, out)
        if args.command == "suite":
            return cmd_suite(args, out)
        if args.command == "check":
            return cmd_check(args, out)
        if args.command == "cache":
            return cmd_cache(args, out)
        if args.command == "serve":
            return cmd_serve(args, out)
        if args.command == "plot":
            return cmd_plot(args, out)
        raise AssertionError(f"unhandled command {args.command}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Unwritable trace paths, missing cache dirs, full disks: report
        # like any other user-facing error instead of dumping a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
