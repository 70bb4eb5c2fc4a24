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
    """The simulation service shed this request at admission time.

    The SPAWN-analog rejection of :mod:`repro.service`: the admission
    controller predicted that the request would wait in the queue longer
    than the configured deadline (or that the queue is at capacity) and
    declined it instead of letting it rot.  Carries the full
    :class:`~repro.service.admission.AdmissionDecision` as ``decision``,
    so callers can inspect the predicted delay, the deadline it exceeded,
    and the queue depth at rejection time.
    """

    def __init__(self, message: str, *, decision=None):
        super().__init__(message)
        self.decision = decision


class ServiceClosed(HarnessError):
    """A request was submitted to a service that is shutting down."""


class ReplayBudgetExceeded(HarnessError):
    """A ledger replay violated its latency / shed-rate budgets.

    The load-test gate of :mod:`repro.service.ledger`: raised by
    :meth:`~repro.service.ledger.ReplayReport.enforce` when a replayed
    request stream measured worse than the budgets allow.  ``evidence``
    is a list of ``{"budget", "measured", "limit"}`` dicts — one per
    violated budget, every violation reported, not just the first — so
    CI logs show the measured-vs-allowed numbers without re-running.
    """

    def __init__(self, message: str, *, evidence=None):
        super().__init__(message)
        self.evidence = list(evidence) if evidence is not None else []


class WorkerCrash(RunFailure):
    """A worker process died (or the pool broke) while holding this task."""


class TaskTimeout(RunFailure):
    """A task exceeded the execution policy's per-task timeout."""
