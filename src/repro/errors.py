"""Exception hierarchy for the SPAWN reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the simulator, runtime, or harness with one
``except`` clause while still distinguishing configuration problems from
simulation-time invariant violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent (e.g. zero SMXs)."""


class ResourceError(ReproError):
    """A kernel requests more resources than a single SMX can ever provide."""


class SimulationError(ReproError):
    """An internal invariant of the event-driven simulator was violated."""


class LaunchError(ReproError):
    """A device-side kernel launch was malformed (e.g. empty grid)."""


class WorkloadError(ReproError):
    """A workload generator was given invalid parameters."""


class HarnessError(ReproError):
    """The experiment harness was misconfigured (unknown scheme/benchmark)."""


class RunFailure(HarnessError):
    """One run could not produce a result after every allowed attempt.

    Raised (or recorded in a quarantine report) by the fault-tolerant
    execution layer.  Carries the :class:`~repro.harness.runner.RunConfig`
    that failed and how many attempts were made, so suite reports can name
    the exact simulation that was lost.
    """

    def __init__(self, message: str, *, config=None, attempts: int = 0):
        super().__init__(message)
        self.config = config
        self.attempts = attempts


class ConformanceError(ReproError):
    """A simulation violated a checked runtime invariant.

    Raised by :meth:`repro.check.ConformanceChecker.raise_if_violations`
    with the list of :class:`~repro.check.invariants.Violation` records
    attached, so callers (tests, the ``repro check`` CLI) can report every
    broken invariant, not just the first.
    """

    def __init__(self, message: str, *, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations is not None else []


class ServiceOverloaded(HarnessError):
    """The simulation service shed this request at its queue cap.

    Raised by :meth:`repro.service.SimulationService.submit` when a
    request neither coalesces nor hits the cache while ``max_queue`` jobs
    are admitted and unfinished.  Carries ``queue_depth``, that count at
    rejection time, and ``max_queue``, the cap it reached.
    """

    def __init__(self, message: str, *, queue_depth: int, max_queue: int):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.max_queue = max_queue


class ServiceClosed(HarnessError):
    """A request was submitted to a service that is shutting down."""


class WorkerCrash(RunFailure):
    """A worker process died (or the pool broke) while holding this task."""


class TaskTimeout(RunFailure):
    """A task exceeded the execution policy's per-task timeout."""
