#!/usr/bin/env python3
"""Repository benchmark: the ``fig15``, ``zoo`` and ``serve`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig15 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics; the only wrapper it carries
counts the events ``EventQueue.run`` returns, once per simulation.
``--trace 1`` runs the workload once that way and once with every layer
wrapped (see ``layers.py``), and reports the per-layer metrics, including
``trace.overhead``.  ``--workload all`` runs every workload both ways,
each in its own process, and prints the end-to-end and per-layer tables.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A simulation
whose makespan differs from ``references.json`` counts as failed, and so
does a served request whose result does.  The exit status is 0 whenever
that line is printed.
"""

import argparse
import asyncio
import json
import math
import resource
import statistics
import subprocess
import sys
import time

import workloads as wl  # exits 2 when there is no src/repro to measure

WORKLOADS = ("fig15", "zoo", "serve")
SETUP_REPEATS = 3
#: Latency limit per workload.  Each sits where few of the workload's
#: times do, so host noise seldom moves one across it.  Zoo's simulation
#: times cluster below 0.62 s and above 0.93 s; at 0.5 s, which cuts
#: through its group at 0.50-0.55 s, the share moved from 0.54 to 0.67
#: between runs of the same inputs.  Serve's latencies thin out above
#: 0.7 s; at 0.5 s, inside their densest band past the median, the
#: share's spread across seeds was 0.09-0.13.
SLO_S = {"fig15": 0.5, "zoo": 0.75, "serve": 0.75}


def declared_metrics(kind: str) -> dict:
    """``{name: unit}`` of one metric list in BENCHMARK.json, in its order."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


END_TO_END = declared_metrics("end_to_end")
PER_LAYER = declared_metrics("per_layer")

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: ``latency_*`` are measured like the end-to-end metrics but carry no
#: bound (see README.md).
MOVES = {
    "latency_p50_s": "reported without a bound",
    "latency_p95_s": "reported without a bound",
    "events.count": "wall_s on fig15 and zoo",
    "events.s": "wall_s on fig15 and zoo",
    "events.ns_per_event": "wall_s on fig15 and zoo",
    "dispatch.ctas": "wall_s on fig15",
    "dispatch.s": "wall_s on fig15",
    "dispatch.ns_per_cta": "wall_s on fig15",
    "smx.s": "wall_s on fig15",
    "smx.ns_per_cta": "wall_s on fig15",
    "memory.s": "wall_s on zoo, then fig15",
    "memory.l2_lines": "wall_s on zoo, then fig15",
    "memory.ns_per_line": "wall_s on zoo, then fig15",
    "memory.long_stream_share": "wall_s on zoo (batchable L2 work)",
    "memory.l2_hit_rate": "none; a model output, pinned",
    "gmu.s": "wall_s on fig15 (baseline-dp), zoo (acs, dtbl)",
    "gmu.kernels": "wall_s on fig15 (baseline-dp), zoo (acs, dtbl)",
    "launch.s": "wall_s on fig15",
    "launch.batches": "wall_s on fig15",
    "controller.s": "wall_s on fig15 (spawn)",
    "controller.decisions": "wall_s on fig15 (spawn)",
    "merge.s": "wall_s on zoo only; 0 on fig15",
    "merge.kernels": "wall_s on zoo only; 0 on fig15",
    "stats.s": "wall_s on fig15",
    "harness.s": "wall_s on fig15 and zoo",
    "inputs.s": "setup_s on every workload",
    "spawn_speedup_err": "none; pinned by the references (fig15)",
    "baseline_speedup_err": "none; pinned by the references (fig15)",
    "admit.p50_s": "slo_attainment and wall_s on serve",
    "queue.wait_p50_s": "slo_attainment and wall_s on serve",
    "queue.wait_p95_s": "slo_attainment and wall_s on serve",
    "batch.p50_s": "slo_attainment and wall_s on serve",
    "batch.p95_s": "slo_attainment and wall_s on serve",
    "batch.count": "slo_attainment and wall_s on serve",
    "batch.size_mean": "slo_attainment and wall_s on serve",
    "route.cached_share": "slo_attainment on serve",
    "route.coalesced_share": "slo_attainment on serve",
    "store.loads": "slo_attainment on serve",
    "store.saves": "slo_attainment and wall_s on serve",
    "store.load_s": "slo_attainment on serve",
    "store.save_s": "slo_attainment and wall_s on serve",
    "generator.lateness_max_s": "none; validity of the serve run",
    # traced / untraced: wall for fig15 and zoo, mean latency for serve.
    "trace.overhead": "none; validity of the traced run",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program(tracker) -> float:
    """Import the package cold; returns the scaled seconds it took."""
    start = time.perf_counter()
    import repro.api  # noqa: F401

    return tracker.scale(time.perf_counter() - start)


def latencies(seconds, slo_s: float) -> dict:
    """Median, p95 and share within ``slo_s``; failures count as infinite."""
    import sims

    ordered = sorted(seconds)
    return {
        "latency_p50_s": statistics.median(ordered),
        "latency_p95_s": sims.percentile(ordered, 95),
        "slo_attainment": sum(s <= slo_s for s in ordered) / len(ordered),
    }


# ----------------------------------------------------------------------
# fig15 / zoo
# ----------------------------------------------------------------------
def run_sims(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import sims
    from hostspeed import SpeedTracker

    tracker = SpeedTracker()
    import_s = import_program(tracker)
    pairs = wl.sim_pairs(name)
    in_seed = wl.input_seed(seed)
    refs = wl.load_references()[name][str(in_seed)]
    rec = layers.Recorder()
    out = {"notes": [f"inputs of seed {in_seed}; {len(pairs)} simulations"]}
    if trace:
        sims.clear_input_caches()
        layers.install_sim(rec)
        sims.generate_inputs(pairs, in_seed)
        rec.close()
        inputs_s = rec.self_ns["inputs"] / 1e9
        rec.uninstall()
        layers.install_event_count(rec)
        _, plain = sims.run_pass(pairs, in_seed, tracker)
        rec.uninstall()
        layers.install_sim(rec)
        rec.reset()
        _, runs = sims.run_pass(pairs, in_seed)
        rec.close()
        rec.uninstall()
        bad = sims.check(plain + runs, refs)
        attempted = len(plain) + len(runs)
        plain_s = sum(r.seconds for r in plain)
        traced_s = sum(r.seconds for r in runs)
        out["layers"] = sim_layer_metrics(rec, runs, inputs_s)
        out["layers"].update(latencies(failed_as_inf(plain, bad), SLO_S[name]))
        out["layers"]["trace.overhead"] = traced_s / plain_s - 1.0
        out["self_ns"] = dict(rec.self_ns)
        out["notes"].append(
            f"untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s"
        )
    else:
        setups = sims.timed_setups(pairs, in_seed, SETUP_REPEATS, tracker)
        layers.install_event_count(rec)
        walls, runs = [], []
        wall, first = sims.run_pass(pairs, in_seed, tracker)
        walls.append(wall)
        runs.extend(first)
        for _ in range(sims.passes_for(seconds, wall) - 1):
            wall, more = sims.run_pass(pairs, in_seed, tracker)
            walls.append(wall)
            runs.extend(more)
        rec.uninstall()
        bad = sims.check(runs, refs)
        attempted = len(runs)
        out["e2e"] = {
            "wall_s": sum(r.scaled for r in runs) / len(walls),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "slo_attainment": latencies(
                failed_as_inf(runs, bad), SLO_S[name])["slo_attainment"],
        }
        out["notes"].append(
            f"{len(walls)} pass(es) of "
            + ", ".join(f"{w:.3f}" for w in walls)
            + f" s as measured; set-up: import {import_s:.3f} s + inputs "
            + ", ".join(f"{s:.3f}" for s in setups) + " s (scaled)"
        )
    out["notes"].append(
        "host-speed probe quartiles: " + ", ".join(
            f"{q * 1e3:.2f}" for q in statistics.quantiles(tracker.probes, n=4)
        ) + " ms"
    )
    counts = sims.work_counts(runs)
    counts["events"] = rec.counts["events"]
    out["counts"] = counts
    out["attempted"] = attempted
    out["failed"] = len(bad)
    out["bad"] = bad
    return out


def failed_as_inf(runs, bad) -> list:
    failed = {line.split(":")[0] for line in bad}
    return [
        math.inf if f"{r.benchmark}/{r.scheme}" in failed else r.scaled
        for r in runs
    ]


def sim_layer_metrics(rec, runs, inputs_s: float) -> dict:
    import sims

    ns, counts = rec.self_ns, rec.counts
    work = sims.work_counts(runs)
    events = counts["events"]
    ctas = work["ctas"]
    lines = work["l2_lines"]
    errors = sims.speedup_errors(runs)

    def per(total, n):
        return total / n if n else 0.0

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "events.count": events,
        "events.s": ns["events"] / 1e9,
        "events.ns_per_event": per(ns["events"], events),
        "dispatch.ctas": ctas,
        "dispatch.s": ns["engine"] / 1e9,
        "dispatch.ns_per_cta": per(ns["engine"], ctas),
        "smx.s": ns["smx"] / 1e9,
        "smx.ns_per_cta": per(ns["smx"], ctas),
        "memory.s": ns["memory"] / 1e9,
        "memory.l2_lines": lines,
        "memory.ns_per_line": per(ns["memory"], lines),
        "memory.long_stream_share": per(counts["l2.long_lines"], lines),
        "memory.l2_hit_rate": per(work["l2_hits"], lines),
        "gmu.s": ns["gmu"] / 1e9,
        "gmu.kernels": counts["gmu.kernels"],
        "launch.s": ns["launch"] / 1e9,
        "launch.batches": counts["launch.batches"],
        "controller.s": ns["controller"] / 1e9,
        "controller.decisions": work["decisions"],
        "merge.s": ns["merge"] / 1e9,
        "merge.kernels": work["merged_kernels"],
        "stats.s": ns["stats"] / 1e9,
        "harness.s": ns["harness"] / 1e9,
        "inputs.s": inputs_s,
        "spawn_speedup_err": errors.get("spawn", 0.0),
        "baseline_speedup_err": errors.get("baseline-dp", 0.0),
    })
    return metrics


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import serve
    from hostspeed import SpeedTracker

    tracker = SpeedTracker()
    import_s = import_program(tracker)
    refs = wl.load_references()["serve"]
    requests = serve.traffic(seed, seconds)
    burst = [] if trace else serve.burst_configs()

    def timed_inputs(configs) -> float:
        start = time.perf_counter()
        serve.generate_inputs(configs)
        return tracker.scale(time.perf_counter() - start)

    async def measure():
        """The open-loop run, then a traced one if asked for."""
        setups = [] if trace else await serve.timed_setup(SETUP_REPEATS)
        plain = await serve.run_once(requests, refs)
        if not trace:
            return setups, plain, None
        rec = layers.Recorder()
        with serve.scratch("workers-") as worker_dir:
            layers.install_serve(rec, worker_dir)
            try:
                traced = await serve.run_once(requests, refs)
            finally:
                rec.uninstall()
            serve.wait_for_children()
            traced["workers"] = layers.read_worker_reports(worker_dir)
        traced["rec"] = rec
        return setups, plain, traced

    try:
        # The bursts run before the traffic's inputs exist, so the process
        # the pool workers fork from is the same whatever the seed.
        inputs_s = timed_inputs(burst)
        bursts = None if trace else asyncio.run(serve.timed_bursts(
            burst, refs, serve.BURST_REPEATS, tracker))
        inputs_s += timed_inputs(requests)
        setups, plain, traced = asyncio.run(measure())
    finally:
        serve.wait_for_children()
    run = traced if trace else plain
    bad = plain["bad"] + (traced if trace else bursts)["bad"]
    valid = run["lateness_s"] <= serve.MAX_LATENESS_S
    out = {
        "attempted": len(plain["rows"]) + (
            len(traced["rows"]) if trace else len(burst) * serve.BURST_REPEATS
        ),
        "failed": len(bad),
        "bad": bad,
        "valid": valid,
        "notes": [
            f"{len(requests)} requests at {serve.RATE:g}/s, traffic seed "
            f"{seed}; generator lateness max {run['lateness_s'] * 1e3:.1f} ms"
            f" (bound {serve.MAX_LATENESS_S * 1e3:.0f} ms)"
        ],
        "counts": route_counts(run["stats"]),
    }
    measured = latencies([
        lat if getattr(result, "makespan", None) is not None else math.inf
        for _req, lat, result, _job in plain["rows"]
    ], SLO_S["serve"])
    if trace:
        out["layers"] = serve_layer_metrics(traced, plain)
        out["layers"]["inputs.s"] += inputs_s
        out["layers"]["latency_p50_s"] = measured["latency_p50_s"]
        out["layers"]["latency_p95_s"] = measured["latency_p95_s"]
    else:
        out["e2e"] = {
            "wall_s": statistics.median(bursts["times"]),
            "setup_s": import_s + inputs_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "slo_attainment": measured["slo_attainment"],
        }
        out["notes"].append(
            f"set-up: import {import_s:.3f} s + inputs {inputs_s:.3f} s "
            "(scaled) + service start "
            + ", ".join(f"{s:.3f}" for s in setups) + " s"
        )
        out["notes"].append(
            f"burst of {len(burst)} distinct requests drained in "
            + ", ".join(f"{s:.3f}" for s in bursts["times"]) + " s (scaled)"
        )
        out["notes"].append(
            f"latency p50 {measured['latency_p50_s']:.4f} s, "
            f"p95 {measured['latency_p95_s']:.4f} s"
        )
    if not valid:
        out["notes"].append("INVALID: the generator ran later than its bound")
    return out


def route_counts(stats) -> dict:
    return {
        name: getattr(stats, name)
        for name in ("submitted", "completed", "failed", "cache_hits",
                     "coalesced", "admitted", "batches", "pool_runs", "lost")
    }


def serve_layer_metrics(traced: dict, plain: dict) -> dict:
    import serve
    import sims

    rec, stats = traced["rec"], traced["stats"]
    samples = rec.samples

    def pct(values, q):
        return sims.percentile(values, q) if values else 0.0

    waits = serve.queue_waits(traced["rows"])
    batches = samples["batch.seconds"]
    sizes = samples["batch.size"]
    submitted = stats.submitted or 1
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        # Inputs built during the traced run itself; set-up adds its own.
        "inputs.s": sum(samples["inputs"])
        + sum(row["inputs_s"] for row in traced["workers"]),
        "admit.p50_s": pct(samples["admit"], 50),
        "queue.wait_p50_s": pct(waits, 50),
        "queue.wait_p95_s": pct(waits, 95),
        "batch.p50_s": pct(batches, 50),
        "batch.p95_s": pct(batches, 95),
        "batch.count": len(batches),
        "batch.size_mean": statistics.mean(sizes) if sizes else 0.0,
        "route.cached_share": stats.cache_hits / submitted,
        "route.coalesced_share": stats.coalesced / submitted,
        "store.loads": len(samples["store.load"]),
        "store.saves": len(samples["store.save"]),
        "store.load_s": sum(samples["store.load"]),
        "store.save_s": sum(samples["store.save"]),
        "generator.lateness_max_s": traced["lateness_s"],
        # The arrival schedule fixes serve's wall time, so compare latency.
        "trace.overhead": mean_latency(traced) / mean_latency(plain) - 1.0,
    })
    return metrics


def mean_latency(run: dict) -> float:
    return statistics.mean(lat for _req, lat, _res, _job in run["rows"])


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def result_line(out: dict, trace: bool) -> dict:
    if trace:
        metrics = {
            name: {"value": out["layers"][name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": out["e2e"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": out["failed"] == 0 and out.get("valid", True),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def fmt(value) -> str:
    if isinstance(value, int):
        return f"{value:d}"
    return f"{value:.6g}"


def print_report(workload: str, out: dict, trace: bool) -> None:
    kind = "traced" if trace else "untraced"
    print(f"== {workload} ({kind}) ==")
    for note in out["notes"]:
        print(f"  {note}")
    for line in out["bad"][:20]:
        print(f"  FAILED {line}")
    print(f"  failed_frac {out['failed'] / max(out['attempted'], 1):.6g}"
          f" ({out['failed']} of {out['attempted']})")
    print("  work: " + " ".join(f"{k}={v}" for k, v in out["counts"].items()))
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:24s} {fmt(out['layers'][name]):>14s} {unit:6s}"
                  f" -> {MOVES[name]}")
        if "self_ns" in out:
            print_shares(out["self_ns"])
    else:
        for name, unit in END_TO_END.items():
            print(f"  {name:24s} {fmt(out['e2e'][name]):>14s} {unit}")


def print_shares(self_ns: dict) -> None:
    import layers

    total = sum(self_ns.values()) or 1
    print("  layer       self s    share   (traced pass)")
    for layer in layers.SIM_LAYERS:
        value = self_ns.get(layer, 0)
        print(f"  {layer:10s} {value / 1e9:8.3f} {100.0 * value / total:7.1f}%")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]), flush=True)
            results[(workload, trace)] = json.loads(lines[-1])
    for title, trace, names in (
        ("end-to-end (untraced)", 0, END_TO_END),
        ("per layer (traced)", 1, PER_LAYER),
    ):
        print(f"\n== {title} ==")
        print("  " + f"{'metric':30s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
        for name in names:
            row = [results[(w, trace)]["metrics"][name] for w in WORKLOADS]
            label = f"{name} ({row[0]['unit']})"
            print(f"  {label:30s}"
                  + "".join(f"{fmt(m['value']):>14s}" for m in row))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    trace = bool(args.trace)
    if args.workload == "serve":
        out = run_serve(args.seed, args.seconds, trace)
    else:
        out = run_sims(args.workload, args.seed, args.seconds, trace)
    print_report(args.workload, out, trace)
    print(json.dumps(result_line(out, trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
