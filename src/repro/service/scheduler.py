"""Batching scheduler: admitted jobs -> ``ParallelRunner.run_suite`` calls.

The compiler-assisted consolidation line of work (Wang et al., PAPERS.md)
aggregates many small kernel launches into few efficient ones; the
service does the same to simulation requests.  Admitted jobs accumulate
in a FIFO queue; whenever the pool is free the scheduler drains up to
``max_batch`` of them into one blocking
:meth:`~repro.harness.parallel.ParallelRunner.run_suite` dispatch, run on
a worker thread so the event loop keeps accepting (and coalescing)
traffic while the pool simulates.

One batch at a time: ``run_suite`` already fans one batch across all
pool workers, so overlapping dispatches would only fight over cores.
Batching therefore changes
*when* a simulation runs, never *what* it computes — results come out of
the same deterministic runner, which the load tests pin down as
bit-identical to serial :meth:`Runner.run`.

The loop is stopped by flag, never by task cancellation: a cancel could
land between popping a batch off the queue and delivering its report,
stranding unresolved handles.  With the flag, an in-flight batch always
finishes and reports before the loop exits, and ``stop(drain=True)``
then flushes whatever is still queued.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.harness.parallel import SuiteReport
from repro.harness.runner import RunConfig
from repro.service.jobs import ServiceJob

#: Dispatch callable: blocking, runs a batch, returns the suite report.
DispatchFn = Callable[[List[RunConfig]], SuiteReport]

#: Completion callback: (batch, report, elapsed_seconds).
BatchDoneFn = Callable[[List[ServiceJob], SuiteReport, float], None]


class BatchScheduler:
    """Single-consumer batch loop over an asyncio job queue."""

    def __init__(
        self,
        dispatch: DispatchFn,
        on_batch_done: BatchDoneFn,
        *,
        max_batch: int = 8,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._dispatch = dispatch
        self._on_batch_done = on_batch_done
        self.max_batch = max_batch
        self._queue: Deque[ServiceJob] = deque()
        self._wakeup = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Producer side (the service's submit path)
    # ------------------------------------------------------------------
    def enqueue(self, job: ServiceJob) -> None:
        self._queue.append(job)
        self._wakeup.set()

    # ------------------------------------------------------------------
    # Consumer loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            self._stopping = False
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self, *, drain: bool = True) -> List[ServiceJob]:
        """Stop the loop; returns jobs left unprocessed (empty if drained).

        With ``drain`` (the default) every queued job is still dispatched
        before this returns; without it the queue is abandoned and
        returned so the caller can fail the stranded handles.
        """
        self._stopping = True
        self._wakeup.set()
        task, self._task = self._task, None
        if task is not None:
            await task
        if drain:
            while self._queue:
                await self._run_one_batch()
        stranded = list(self._queue)
        self._queue.clear()
        return stranded

    async def _run(self) -> None:
        while not self._stopping:
            if self._queue:
                await self._run_one_batch()
            else:
                # No await sits between this clear and the wait, and the
                # event loop is cooperative, so an enqueue cannot slip
                # into the gap and be missed.
                self._wakeup.clear()
                await self._wakeup.wait()

    async def _run_one_batch(self) -> None:
        batch: List[ServiceJob] = []
        while self._queue and len(batch) < self.max_batch:
            batch.append(self._queue.popleft())
        if not batch:
            return
        configs = [job.config for job in batch]
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        for job in batch:
            job.dispatched_at = start
        report = await loop.run_in_executor(None, self._dispatch, configs)
        elapsed = time.perf_counter() - start
        self._on_batch_done(batch, report, elapsed)
