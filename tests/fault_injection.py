"""Deterministic fault injection for the chaos tests and CI's chaos steps.

The execution layer (:mod:`repro.harness.parallel`) recovers from worker
kills, hung tasks, torn payloads and a failing store.  None of those
happen on demand, so this module makes them happen, deterministically,
from outside the package:

* ``repro.harness.parallel._simulate_payload``, the pool's worker entry
  point, is wrapped before any pool starts.  The pool looks it up at
  submit time and forked workers inherit the wrapper.  A
  :class:`multiprocessing.Value` shared with them numbers every task
  start across processes, and a :class:`FaultPlan` names the start at
  which to misbehave (``kill_on_dispatch=0`` kills the worker that starts
  the first task).  A fault therefore fires once and its retry runs
  clean, so the chaos tests can assert bit-identical results.
* ``ResultStore.load`` and ``ResultStore.save`` are wrapped so that their
  first *N* calls raise :class:`OSError`.

Only the hooks a plan uses are patched.  A worker started by ``spawn`` or
``forkserver`` would import an unpatched ``repro``, so :func:`injected`
refuses any start method but ``fork``.

Run as a program, it installs the plan in ``$REPRO_FAULTS`` (a JSON
object of :class:`FaultPlan` fields) and hands its arguments to the
``repro`` CLI::

    REPRO_FAULTS='{"kill_on_dispatch": 0}' PYTHONPATH=src \\
        python -m tests.fault_injection suite --jobs 2 --experiments fig19
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import multiprocessing
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import HarnessError
from repro.harness import parallel
from repro.harness.store import ResultStore

#: Environment variable carrying a JSON-encoded plan for the CLI.
ENV_FAULTS = "REPRO_FAULTS"

#: Exit status of an injected worker kill (visible in pool logs).
KILL_EXIT_CODE = 87


@dataclass(frozen=True)
class FaultPlan:
    """Which faults to inject, and when.

    ``*_on_dispatch`` fields name one task start, 0-based and counted
    across every pool worker, retries included; ``None`` disables that
    fault.
    """

    kill_on_dispatch: Optional[int] = None  # the worker os._exit()s
    delay_on_dispatch: Optional[int] = None  # the task sleeps first
    delay_seconds: float = 0.0
    corrupt_on_dispatch: Optional[int] = None  # the task returns a torn payload
    store_save_errors: int = 0  # the first N ResultStore saves raise OSError
    store_load_errors: int = 0

    def __post_init__(self) -> None:
        if self.delay_on_dispatch is not None and self.delay_seconds <= 0:
            raise HarnessError("delay_on_dispatch needs delay_seconds > 0")

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """The plan in ``$REPRO_FAULTS``; an empty plan when it is unset."""
        raw = os.environ.get(ENV_FAULTS, "").strip()
        if not raw:
            return cls()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise HarnessError(f"${ENV_FAULTS} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise HarnessError(f"${ENV_FAULTS} must be a JSON object")
        unknown = sorted(set(payload) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise HarnessError(f"unknown fault plan field(s): {', '.join(unknown)}")
        return cls(**payload)

    def injects_task_faults(self) -> bool:
        return any(
            seq is not None
            for seq in (
                self.kill_on_dispatch,
                self.delay_on_dispatch,
                self.corrupt_on_dispatch,
            )
        )


_installed = False


@contextlib.contextmanager
def injected(plan: FaultPlan):
    """Patch the hooks ``plan`` uses for the body of a ``with`` block."""
    global _installed
    method = multiprocessing.get_start_method()
    if method != "fork":
        raise RuntimeError(
            f"fault injection needs the 'fork' start method, not {method!r}: "
            "other workers would not inherit the patches"
        )
    if _installed:
        raise RuntimeError("a fault plan is already installed")
    patches = []
    if plan.injects_task_faults():
        patches.append((parallel, "_simulate_payload", _faulty_tasks(plan)))
    for name, errors in (("load", plan.store_load_errors),
                         ("save", plan.store_save_errors)):
        if errors:
            patches.append((ResultStore, name, _failing_first(errors, name)))
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    _installed = True
    try:
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
        _installed = False


def _faulty_tasks(plan: FaultPlan) -> Callable:
    simulate = parallel._simulate_payload
    starts = multiprocessing.Value("q", 0)  # shared with forked workers

    # ``wraps`` keeps the original's module and name, so the pool pickles
    # the wrapper by reference and each worker finds its inherited copy.
    @functools.wraps(simulate)
    def faulty(task):
        # A kill breaks the pool, which then SIGTERMs the other workers;
        # one that died holding the shared lock would block every later
        # worker, so the count is taken with SIGTERM deferred.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            with starts.get_lock():
                seq = starts.value
                starts.value += 1
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if seq == plan.kill_on_dispatch:
            os._exit(KILL_EXIT_CODE)
        if seq == plan.delay_on_dispatch:
            time.sleep(plan.delay_seconds)
        if seq == plan.corrupt_on_dispatch:
            return {"torn": seq}
        return simulate(task)

    return faulty


def _failing_first(errors: int, name: str) -> Callable:
    method = getattr(ResultStore, name)
    calls = itertools.count()

    @functools.wraps(method)
    def failing(self, *args, **kwargs):
        if next(calls) < errors:
            raise OSError(f"injected store {name} error")
        return method(self, *args, **kwargs)

    return failing


def main(argv=None) -> int:
    """Install ``$REPRO_FAULTS`` and run the ``repro`` CLI on ``argv``."""
    from repro.cli import main as cli_main

    plan = FaultPlan.from_env()
    print(f"chaos: injecting faults {dataclasses.asdict(plan)}", file=sys.stderr)
    with injected(plan):
        return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
