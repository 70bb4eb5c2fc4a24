"""Deterministic, config-driven fault injection for the execution layer.

The fault-tolerant :class:`~repro.harness.parallel.ParallelRunner` is only
trustworthy if its failure paths are *tested* — and worker crashes, hangs,
and torn payloads do not happen on demand.  This module makes them happen
on demand, deterministically:

* Every task dispatch gets a monotonically increasing **dispatch sequence
  number** from the parent.  A :class:`FaultPlan` names the sequence
  numbers at which to misbehave (``kill_on_dispatch=3`` kills the worker
  process servicing dispatch #3), so a fault fires exactly once — a
  re-dispatched task carries a fresh, higher sequence number and runs
  clean.  Chaos tests can therefore assert *bit-identical* results between
  a faulted parallel run and a fault-free serial one.
* Permanent failures (for quarantine testing) are keyed on the run's
  benchmark/scheme instead, so they fire on every attempt.
* Store IO faults are injected by wrapping a
  :class:`~repro.harness.store.ResultStore` in :class:`FlakyStore`, whose
  first *N* loads/saves raise :class:`OSError`.  A
  :class:`~repro.harness.parallel.ParallelRunner` given a plan wraps its
  runner's store once, so every ``faults=`` entry point (``run_suite``,
  ``serve``, the CLI) applies them the same way.

Plans serialize to flat JSON dicts so they cross the process boundary to
workers, and can be supplied to the CLI via the ``REPRO_FAULTS``
environment variable (used by the CI chaos smoke job)::

    REPRO_FAULTS='{"kill_on_dispatch": 0}' repro suite --jobs 2 ...

Nothing here is imported by the simulator: a production run with no fault
plan pays zero cost.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import HarnessError, SimulationError, WorkerCrash

#: Exit status used by the injected worker kill (visible in pool logs).
KILL_EXIT_CODE = 87

#: Environment variable carrying a JSON-encoded fault plan for the CLI.
ENV_FAULTS = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of which faults to inject, and when.

    ``*_on_dispatch`` fields name one parent-assigned dispatch sequence
    number (0-based, counting every task submission including retries);
    ``None`` disables that fault.  ``fail_benchmark``/``fail_scheme``
    select runs that fail *every* attempt (both must match when both are
    set; a permanent failure needs at least one of them).
    """

    kill_on_dispatch: Optional[int] = None  # worker os._exit()s mid-task
    delay_on_dispatch: Optional[int] = None  # task sleeps before returning
    delay_seconds: float = 0.0
    corrupt_on_dispatch: Optional[int] = None  # task returns a torn payload
    fail_benchmark: Optional[str] = None  # permanent failure selector
    fail_scheme: Optional[str] = None
    store_save_errors: int = 0  # first N FlakyStore saves raise OSError
    store_load_errors: int = 0

    def __post_init__(self) -> None:
        if self.delay_on_dispatch is not None and self.delay_seconds <= 0:
            raise HarnessError("delay_on_dispatch needs delay_seconds > 0")

    def is_noop(self) -> bool:
        """True when this plan injects nothing at all."""
        return self == FaultPlan()

    # ------------------------------------------------------------------
    # Serialization (plans cross the process boundary as plain dicts)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise HarnessError(f"unknown fault plan field(s): {', '.join(unknown)}")
        return cls(**payload)

    @classmethod
    def from_env(cls, env: str = ENV_FAULTS) -> Optional["FaultPlan"]:
        """Plan from ``$REPRO_FAULTS`` (JSON), or None when unset/empty."""
        raw = os.environ.get(env, "").strip()
        if not raw:
            return None
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise HarnessError(f"${env} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise HarnessError(f"${env} must be a JSON object")
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------
    def permanently_fails(self, run_config) -> bool:
        """True when ``run_config`` is selected to fail on every attempt."""
        if self.fail_benchmark is None and self.fail_scheme is None:
            return False
        if self.fail_benchmark is not None:
            if run_config.benchmark != self.fail_benchmark:
                return False
        if self.fail_scheme is not None:
            if run_config.scheme != self.fail_scheme:
                return False
        return True

    def apply_in_worker(self, seq: int, run_config) -> bool:
        """Inject faults inside a worker process servicing dispatch ``seq``.

        Returns True when the worker should return a corrupted payload
        instead of simulating.  May kill the process or raise.
        """
        if seq == self.kill_on_dispatch:
            os._exit(KILL_EXIT_CODE)
        if self.permanently_fails(run_config):
            raise SimulationError(
                "injected permanent failure for "
                f"{run_config.benchmark}/{run_config.scheme}"
            )
        if seq == self.delay_on_dispatch:
            time.sleep(self.delay_seconds)
        return seq == self.corrupt_on_dispatch

    def apply_inline(self, seq: int, run_config) -> None:
        """Inject faults for in-process (serial) execution of ``seq``.

        A kill becomes a raised :class:`WorkerCrash` (killing the parent
        would defeat the point) and a corrupt payload becomes a
        :class:`ValueError`, mirroring what the parent-side payload decode
        would raise; both still exercise the retry/quarantine machinery.
        """
        if seq == self.kill_on_dispatch:
            raise WorkerCrash(
                "injected worker kill (inline execution)", config=run_config
            )
        if self.permanently_fails(run_config):
            raise SimulationError(
                "injected permanent failure for "
                f"{run_config.benchmark}/{run_config.scheme}"
            )
        if seq == self.delay_on_dispatch:
            time.sleep(self.delay_seconds)
        if seq == self.corrupt_on_dispatch:
            raise ValueError("injected corrupt payload (inline execution)")

    def flaky_store(self, store):
        """Wrap ``store`` per this plan's IO-error budget (or pass through).

        A store that is already a :class:`FlakyStore` passes through, so
        a runner reused across suites or services never gets a second
        error budget.
        """
        if store is None or isinstance(store, FlakyStore):
            return store
        if not self.store_save_errors and not self.store_load_errors:
            return store
        return FlakyStore(
            store,
            save_errors=self.store_save_errors,
            load_errors=self.store_load_errors,
        )


class FlakyStore:
    """ResultStore wrapper whose first *N* loads/saves raise OSError.

    Everything else (``key_for``, ``stats``, ...) delegates to the wrapped
    store, so a :class:`~repro.harness.runner.Runner` cannot tell it apart
    from a store on a failing disk.
    """

    def __init__(self, store, *, save_errors: int = 0, load_errors: int = 0):
        self._store = store
        self.save_errors_left = save_errors
        self.load_errors_left = load_errors

    def load(self, key):
        if self.load_errors_left > 0:
            self.load_errors_left -= 1
            raise OSError("injected store load error")
        return self._store.load(key)

    def save(self, key, result):
        if self.save_errors_left > 0:
            self.save_errors_left -= 1
            raise OSError("injected store save error")
        return self._store.save(key, result)

    def __getattr__(self, name):
        return getattr(self._store, name)
