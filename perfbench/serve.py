"""The ``serve`` workload: an open loop of Poisson arrivals against the service.

Requests come from ``repro.api.generate_traffic`` over its default matrix
and run seeds 1..24, at ``RATE`` requests per second, with the traffic
seed taken from the benchmark seed; arrivals stop at the end of the
measuring window.  Each run gets a fresh SQLite store and a fresh
``serve(jobs=2)`` service.

Set-up generates the inputs every request in the traffic (and the burst,
below) will need, in the service process, before the service starts.
That is the steady state of a long-running service, and pool workers fork
from it.  Without it
most requests of a 30-s run pay a first-touch input generation of
0.3-0.5 s, and how many do depends on the traffic draw, so the median
latency swung from 0.18 to 0.52 s across seeds.

The load loop here, unlike ``drive_service``, times every request from when
it was *due*, not from when it was actually submitted, so a stalled
generator shows up as latency of the requests it delayed.  It also
reports how late the generator ran; a run later than ``MAX_LATENESS_S``
is invalid.

The arrival schedule fixes how long the open loop lasts, so serve's
``wall_s`` comes from a closed burst instead: every matrix pair at each of
``BURST_RUN_SEEDS`` (27 distinct requests) drained by a fresh store and
service (see ``timed_bursts``).  That is how long the service takes to
drain a backlog, and a slower simulation, pool dispatch or store shows in
it in full.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from typing import Dict, List

import workloads as wl

#: Requests per second: about half the burst capacity of 4.7-6.6 req/s
#: measured on the 2-core reference host (80-request bursts, seeds 1-3).
#: At 4 req/s the median request sat on the boundary between the serial
#: path and pooled batches, and the p50 moved 4x between seeds.
RATE = 2.5
MAX_LATENESS_S = 0.25
JOBS = 2
#: The burst is the same for every benchmark seed: with run seeds drawn
#: from the benchmark seed, the drain time moved 15% between seeds with
#: the work, not the program.
BURST_RUN_SEEDS = (1, 2, 3)
BURST_REPEATS = 4


def traffic(seed: int, seconds: float):
    """The requests due within ``seconds`` (at least one)."""
    from repro.api import generate_traffic

    drawn = generate_traffic(
        int(2 * RATE * seconds) + 10, seed=seed, seeds=wl.SERVE_RUN_SEEDS,
        mean_gap_s=1.0 / RATE,
    )
    return [r for r in drawn if r.at < seconds] or drawn[:1]


def generate_inputs(requests) -> None:
    """Build every input the requests need, in this process."""
    import sims

    for request in requests:
        sims.generate_inputs([(request.benchmark, request.scheme)], request.seed)


def burst_configs():
    """The closed burst: every matrix pair at every burst run seed."""
    from repro.api import RunConfig

    return [
        RunConfig(benchmark=b, scheme=s, seed=run_seed)
        for run_seed in BURST_RUN_SEEDS for b, s in wl.serve_matrix()
    ]


def scratch(prefix: str) -> tempfile.TemporaryDirectory:
    """A fresh directory inside the checkout, removed on exit."""
    base = wl.ROOT / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=prefix, dir=base,
                                       ignore_cleanup_errors=True)


async def start_service(store_dir: str):
    from repro.api import serve

    service = serve(jobs=JOBS, store_url=f"sqlite://{store_dir}/store.db")
    await service.start()
    return service


async def timed_setup(repeats: int) -> List[float]:
    """Open a fresh store and start (then close) a service, ``repeats`` times."""
    times = []
    for _ in range(repeats):
        with scratch("setup-") as store_dir:
            start = time.perf_counter()
            service = await start_service(store_dir)
            times.append(time.perf_counter() - start)
            await service.close()
            service.runner.store.close()
    return times


async def timed_bursts(configs, references, repeats: int,
                       tracker) -> Dict:
    """Drain ``configs`` on a fresh store and service, ``repeats`` times.

    The requests go in one full batch (``max_batch`` of them) at a time,
    each submitted at once and awaited, so every batch is timed and scaled
    by the host-speed probes on either side of it; a burst's time is the
    sum.  The service runs one batch at a time either way, so this is the
    time to drain them all submitted at once, less the probes.  Every
    config is distinct, so nothing is a cache hit.  Returns the scaled
    drain times and the failures.
    """
    times, bad = [], []
    for _ in range(repeats):
        with scratch("burst-") as store_dir:
            service = await start_service(store_dir)
            step = service.config.max_batch
            results, total = [], 0.0
            try:
                tracker.scale(0.0)  # a fresh probe right before the burst
                for i in range(0, len(configs), step):
                    start = time.perf_counter()
                    jobs = [await service.submit(c) for c in configs[i:i + step]]
                    results += await asyncio.gather(*jobs,
                                                    return_exceptions=True)
                    total += tracker.scale(time.perf_counter() - start)
            finally:
                await service.close()
                service.runner.store.close()
        times.append(total)
        bad.extend(check(zip(configs, results), references))
        if service.stats().lost:
            bad.append(f"burst: service lost {service.stats().lost} submissions")
    return {"times": times, "bad": bad}


async def drive(service, requests) -> Dict:
    """Submit on schedule; returns per-request rows and generator lateness."""
    pending = []
    lateness = 0.0
    start = time.perf_counter()
    for request in requests:
        due = start + request.at
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness = max(lateness, time.perf_counter() - due)
        job = await service.submit(request.config())
        pending.append((request, due, job))
    from repro.errors import ReproError

    rows = []
    for request, due, job in pending:
        try:
            result = await job
        except ReproError as exc:  # a failed request still gets a row
            result = exc
        finished = job.finished_at if job.finished_at is not None \
            else time.perf_counter()
        rows.append((request, finished - due, result, job))
    return {"rows": rows, "lateness_s": lateness}


def check(outcomes, references) -> List[str]:
    """``(request, result)`` pairs whose makespan differs from the table."""
    bad = []
    for request, result in outcomes:
        pair = f"{request.benchmark}/{request.scheme}"
        expected = references.get(str(request.seed), {}).get(pair)
        makespan = getattr(result, "makespan", None)
        if makespan is None or makespan != expected:
            bad.append(f"{pair}@{request.seed}: {result!r} != {expected!r}")
    return bad


async def run_once(requests, references) -> Dict:
    """One open-loop run against a fresh store and service."""
    with scratch("store-") as store_dir:
        service = await start_service(store_dir)
        try:
            outcome = await drive(service, requests)
        finally:
            await service.close()
            service.runner.store.close()
    stats = service.stats()
    outcome["stats"] = stats
    outcome["bad"] = check(
        ((request, result) for request, _lat, result, _job in outcome["rows"]),
        references,
    )
    if stats.lost:
        outcome["bad"].append(f"service lost {stats.lost} submissions")
    return outcome


def wait_for_children() -> None:
    """Join every pool worker the service started before returning."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join()


def queue_waits(rows) -> List[float]:
    waits = []
    seen = set()
    for _request, _latency, _result, job in rows:
        if id(job) in seen or job.dispatched_at is None:
            continue
        seen.add(id(job))
        waits.append(job.dispatched_at - job.submitted_at)
    return waits
