"""Benchmark runner with two-level result caching.

Most experiments share runs (the Fig. 15 speedups, Fig. 16 occupancy,
Fig. 17 L2 rates, and Fig. 18 kernel counts all come from the same three
runs per benchmark), so results are memoized on the full
:meth:`RunConfig.key` tuple.  Lookups go **memory -> disk -> simulate**:
the in-process dict answers repeats within one process, and an optional
:class:`~repro.harness.store.ResultStore` persists results across
processes and CI jobs (pass ``store=open_store(url)``; the default is
no disk cache).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.errors import HarnessError
from repro.harness import schemes as sch
from repro.harness.store import ResultStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import MultiTracer, Tracer
from repro.runtime.streams import PerChildStream, PerParentCTAStream
from repro.sim.config import GPUConfig
from repro.sim.engine import DEFAULT_MAX_EVENTS, GPUSimulator, SimResult
from repro.workloads.base import Benchmark, get_benchmark

#: Stream policy names accepted by the runner.
PER_CHILD = "per-child"
PER_PARENT_CTA = "per-parent-cta"


@dataclass
class RunConfig:
    """Everything that identifies one simulation run."""

    benchmark: str
    scheme: str
    seed: int = 1
    cta_threads: Optional[int] = None  # child CTA size override (Fig. 7)
    stream_policy: str = PER_CHILD  # Fig. 8 compares per-parent-cta
    trace_interval: float = 1000.0

    def key(self) -> Tuple:
        """Cache identity: every field that changes the simulation output.

        ``trace_interval`` belongs here — it changes the sampled timeline
        (and therefore the stored stats), so two runs differing only in
        trace interval must not share a cache entry.
        """
        return (
            self.benchmark,
            self.scheme,
            self.seed,
            self.cta_threads,
            self.stream_policy,
            self.trace_interval,
        )


class Runner:
    """Runs benchmarks under schemes against one GPU configuration."""

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        *,
        max_events: int = DEFAULT_MAX_EVENTS,
        store: Optional[ResultStore] = None,
    ):
        self.config = config or GPUConfig()
        self.max_events = max_events
        self._cache: Dict[Tuple, SimResult] = {}
        #: Optional persistent layer; None keeps the runner memory-only.
        self.store = store
        #: Keys the store missed; not read again until cached here.
        self._store_misses: Set[Tuple] = set()
        #: This runner's lookup counts and simulation timings (``runner.*``).
        self.metrics = MetricsRegistry()

    def run(
        self,
        run_config: RunConfig,
        *,
        tracer: Optional[Tracer] = None,
        check: bool = False,
    ) -> SimResult:
        """Run (or fetch from cache) one benchmark/scheme combination.

        ``offline`` runs its threshold sweep and returns the run of the
        ``threshold:<T>`` it picks
        (:func:`repro.harness.sweep.offline_choice`); only that run sees
        ``tracer`` and ``check``.

        A ``tracer`` forces a fresh simulation (a cached result has no
        event stream to offer) but the result is still cached afterwards —
        tracing does not perturb the simulation, so the summary is
        interchangeable with an untraced run's.

        ``check=True`` attaches a :class:`repro.check.ConformanceChecker`
        for the run (fanned out next to ``tracer`` when both are given)
        and raises :class:`~repro.errors.ConformanceError` if any runtime
        invariant is violated.  Like tracing, checking forces a fresh
        simulation without perturbing it.
        """
        if run_config.scheme == sch.OFFLINE:
            # Imported here: repro.harness.sweep imports this module.
            from repro.harness.sweep import offline_choice

            best = offline_choice(run_config, self.run)
            return self.run(best, tracer=tracer, check=check)
        checker = None
        if check:
            # Import here so the checker stays out of the harness's module
            # graph for the overwhelmingly common check-free runs.
            from repro.check.invariants import ConformanceChecker

            checker = ConformanceChecker(self.config, scheme=run_config.scheme)
            tracer = (
                checker if tracer is None else MultiTracer([tracer, checker])
            )
        key = run_config.key()
        if tracer is None:
            cached = self._cache.get(key)
            if cached is not None:
                self.metrics.counter("runner.cache_hits").inc()
                return cached
            stored = self._promote(run_config)
            if stored is not None:
                return stored
        benchmark = get_benchmark(run_config.benchmark)
        spec = sch.SchemeSpec.parse(run_config.scheme)
        if spec.variant == "flat":
            app = benchmark.flat(run_config.seed)
        else:
            app = benchmark.dp(run_config.seed, cta_threads=run_config.cta_threads)
        policy = sch.make_policy(spec, benchmark)
        stream_policy = self._stream_policy(run_config.stream_policy)
        sim = GPUSimulator(
            config=self.config,
            policy=policy,
            stream_policy=stream_policy,
            tracer=tracer,
            trace_interval=run_config.trace_interval,
            max_events=self.max_events,
            bind_policy=spec.bind_policy,
        )
        # Counted here, so a run whose benchmark or scheme fails to
        # build is no simulation.
        self.metrics.counter("runner.cache_misses").inc()
        started = time.perf_counter()
        result = sim.run(app)
        self.metrics.histogram(
            "runner.sim_seconds",
            benchmark=run_config.benchmark,
            scheme=run_config.scheme,
        ).observe(max(time.perf_counter() - started, 0.0))
        if checker is not None:
            checker.finalize(result)
            checker.raise_if_violations()
        self.cache_result(run_config, result)
        return result

    def cached(self, run_config: RunConfig) -> Optional[SimResult]:
        """Cached result (memory, then disk) without simulating, or None.

        ``offline`` answers from its cached sweep, None while a sweep run
        is missing.  A disk hit is promoted into the memory cache and
        counted in ``runner.disk_hits``, as in :meth:`run`.  Memory hits
        and misses stay uncounted: this is the parallel harness's
        pre-filter and result resolution, not a run.
        """
        if run_config.scheme == sch.OFFLINE:
            from repro.harness.sweep import offline_choice

            best = offline_choice(run_config, self.cached)
            return None if best is None else self.cached(best)
        cached = self._cache.get(run_config.key())
        if cached is not None:
            return cached
        return self._promote(run_config)

    def _promote(self, run_config: RunConfig) -> Optional[SimResult]:
        """Load ``run_config`` from the store into memory, counting a hit.

        The store is read once per key: a miss is remembered until the
        key is cached, so the pre-filter, a service submit and the run
        that follows share one load.  If another process writes such a
        key in between, this runner re-simulates it, with the same
        deterministic result.
        """
        if self.store is None:
            return None
        key = run_config.key()
        if key in self._store_misses:
            return None
        stored = self._store_load(run_config)
        if stored is None:
            self._store_misses.add(key)
        else:
            self.metrics.counter("runner.disk_hits").inc()
            self._cache[key] = stored
        return stored

    def cache_result(self, run_config: RunConfig, result: SimResult) -> None:
        """Install ``result`` in the memory cache and the disk store.

        Used after simulating locally and by the parallel harness to merge
        worker results back into the shared caches.
        """
        key = run_config.key()
        self._cache[key] = result
        self._store_misses.discard(key)
        if self.store is not None:
            self._store_save(run_config, result)

    # -- persistent store, IO-fault tolerant ----------------------------
    # The disk cache is an optimization; a failing filesystem must never
    # take a simulation (let alone a whole suite) down with it.  Both
    # directions swallow OSError, count it, and carry on.
    def _store_load(self, run_config: RunConfig) -> Optional[SimResult]:
        try:
            return self.store.load(
                self.store.key_for(run_config, self.config, self.max_events)
            )
        except OSError:
            self.metrics.counter("runner.store_errors").inc()
            return None

    def _store_save(self, run_config: RunConfig, result: SimResult) -> None:
        try:
            self.store.save(
                self.store.key_for(run_config, self.config, self.max_events),
                result,
            )
        except OSError:
            self.metrics.counter("runner.store_errors").inc()

    def run_simple(
        self,
        benchmark: str,
        scheme: str,
        *,
        seed: int = 1,
        cta_threads: Optional[int] = None,
        stream_policy: str = PER_CHILD,
    ) -> SimResult:
        """Run one benchmark/scheme pair with explicit keyword parameters."""
        return self.run(
            RunConfig(
                benchmark=benchmark,
                scheme=scheme,
                seed=seed,
                cta_threads=cta_threads,
                stream_policy=stream_policy,
            )
        )

    def speedup(
        self,
        benchmark: str,
        scheme: str,
        *,
        seed: int = 1,
        cta_threads: Optional[int] = None,
        stream_policy: str = PER_CHILD,
    ) -> float:
        """Speedup of ``scheme`` over the flat variant (the paper's metric)."""
        flat = self.run_simple(
            benchmark, sch.FLAT, seed=seed, cta_threads=cta_threads,
            stream_policy=stream_policy,
        )
        other = self.run_simple(
            benchmark, scheme, seed=seed, cta_threads=cta_threads,
            stream_policy=stream_policy,
        )
        if other.makespan <= 0:
            raise HarnessError(f"{benchmark}/{scheme}: zero makespan")
        return flat.makespan / other.makespan

    @staticmethod
    def _stream_policy(name: str):
        if name == PER_CHILD:
            return PerChildStream()
        if name == PER_PARENT_CTA:
            return PerParentCTAStream()
        raise HarnessError(f"unknown stream policy {name!r}")

    def cache_size(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        self._cache.clear()
        self._store_misses.clear()


def geometric_mean(values) -> float:
    """The paper's average-speedup aggregation."""
    values = list(values)
    if not values:
        raise HarnessError("geometric mean of nothing")
    if any(v <= 0 for v in values):
        raise HarnessError("geometric mean needs positive values")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
