"""Shared hypothesis strategies for simulator property tests.

Promoted out of ``test_properties_engine.py`` so the conformance suite's
differential tests (``test_check_differential.py``) and any future
property tests draw from the same application space instead of growing
divergent ad-hoc generators.

* :func:`micro_apps` — random micro-applications: grid sizes, uniform work
  distributions, child fan-outs at random progress points.
* :func:`rich_apps` — a wider space: multiple root kernels, non-uniform
  per-thread work, nested-depth child requests.  Slower to simulate; meant
  for the ``slow``-marked differential tests.
* :data:`POLICIES` / :func:`policies` — one factory per launch-policy
  family (every :class:`~repro.core.policies.DecisionKind` is reachable).
* :func:`job_costs` / :func:`maybe_costs` / :func:`admission_states` —
  the service-layer admission space: predicted job costs (``None`` is
  the bootstrap case) and :class:`~repro.service.admission
  .AdmissionController` instances driven into *reachable* queue states
  (prior traffic is replayed through the controller's own policy, so no
  generated state is one the service could not actually be in).
"""

import numpy as np
from hypothesis import strategies as st

from repro.core.policies import (
    AggregatePolicy,
    AlwaysLaunchPolicy,
    ConsolidatePolicy,
    DTBLPolicy,
    FreeLaunchPolicy,
    NeverLaunchPolicy,
    SpawnPolicy,
    StaticThresholdPolicy,
)
from repro.service.admission import ADMIT, AdmissionController, CostModel
from repro.sim.kernel import Application, ChildRequest, KernelSpec

#: One factory per policy family.  Index into this with a drawn integer
#: (hypothesis shrinks integers well) or use the :func:`policies` strategy.
POLICIES = [
    NeverLaunchPolicy,
    AlwaysLaunchPolicy,
    lambda: StaticThresholdPolicy(50),
    SpawnPolicy,
    lambda: DTBLPolicy(0),
    FreeLaunchPolicy,
    lambda: ConsolidatePolicy(0, batch_ctas=2),
    lambda: AggregatePolicy(0, "warp"),
    lambda: AggregatePolicy(0, "block"),
    lambda: AggregatePolicy(0, "grid"),
]


def policies():
    """Strategy yielding a fresh-policy factory (not a shared instance)."""
    return st.sampled_from(POLICIES)


@st.composite
def child_requests(draw, threads, *, max_requests=6, max_items=200):
    """A dict of per-thread :class:`ChildRequest` fan-outs."""
    requests = {}
    tids = draw(
        st.lists(
            st.integers(min_value=0, max_value=threads - 1),
            min_size=0,
            max_size=min(max_requests, threads),
            unique=True,
        )
    )
    total_child_items = 0
    for tid in tids:
        items = draw(st.integers(min_value=1, max_value=max_items))
        total_child_items += items
        requests[tid] = ChildRequest(
            name=f"c{tid}",
            items=items,
            cta_threads=draw(st.sampled_from([16, 32, 64])),
            items_per_thread=draw(st.integers(min_value=1, max_value=3)),
            mem_base=1_000_000 + tid * 65536,
            at_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        )
    return requests, total_child_items


@st.composite
def micro_apps(draw):
    """Single-kernel applications with uniform per-thread work."""
    threads = draw(st.integers(min_value=1, max_value=96))
    threads_per_cta = draw(st.sampled_from([8, 32, 64]))
    base_items = draw(st.integers(min_value=0, max_value=8))
    items = np.full(threads, base_items, dtype=np.int64)
    requests, total_child_items = draw(child_requests(threads))
    spec = KernelSpec(
        name="p",
        threads_per_cta=threads_per_cta,
        thread_items=items,
        mem_bases=np.arange(threads, dtype=np.int64) * 128,
        child_requests=requests,
    )
    total = int(items.sum()) + total_child_items
    return Application(name="micro", kernels=[spec], flat_items=total)


def job_costs(max_value: float = 60.0):
    """Predicted per-job seconds: finite, non-negative."""
    return st.floats(
        min_value=0.0, max_value=max_value,
        allow_nan=False, allow_infinity=False,
    )


def maybe_costs(max_value: float = 60.0):
    """A predicted cost or ``None`` (the bootstrap no-data case)."""
    return st.one_of(st.none(), job_costs(max_value))


@st.composite
def admission_states(draw, max_prior_traffic: int = 16):
    """An :class:`AdmissionController` in a reachable queue state.

    Draws the controller's tunables, then replays drawn prior traffic
    through its *own* policy (only costs it actually admits join the
    backlog), so every generated state is one the service could reach.
    """
    controller = AdmissionController(
        CostModel(),
        workers=draw(st.integers(min_value=1, max_value=8)),
        deadline_s=draw(
            st.one_of(
                st.none(),
                st.floats(
                    min_value=0.001, max_value=120.0,
                    allow_nan=False, allow_infinity=False,
                ),
            )
        ),
        inline_threshold_s=draw(job_costs(5.0)),
        max_queue=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=16))
        ),
    )
    for cost in draw(
        st.lists(maybe_costs(), max_size=max_prior_traffic)
    ):
        decision = controller.classify(cost)
        if decision.verdict == ADMIT:
            controller.on_admitted(decision)
    return controller


@st.composite
def rich_apps(draw):
    """Multi-kernel applications with skewed per-thread work distributions.

    Exercises the paths micro_apps cannot: several sequential root kernels
    (stream retirement and HWQ rebinding), non-uniform warps (reduceat
    critical paths), and larger child grids (multi-CTA children, grid
    suspension while descendants run).
    """
    num_roots = draw(st.integers(min_value=1, max_value=3))
    kernels = []
    total = 0
    for index in range(num_roots):
        threads = draw(st.integers(min_value=1, max_value=128))
        threads_per_cta = draw(st.sampled_from([8, 16, 32, 64]))
        items = draw(
            st.lists(
                st.integers(min_value=0, max_value=12),
                min_size=threads,
                max_size=threads,
            )
        )
        items = np.asarray(items, dtype=np.int64)
        requests, child_items = draw(
            child_requests(threads, max_requests=8, max_items=400)
        )
        kernels.append(
            KernelSpec(
                name=f"root{index}",
                threads_per_cta=threads_per_cta,
                thread_items=items,
                mem_bases=np.arange(threads, dtype=np.int64) * 128
                + (index << 20),
                child_requests=requests,
            )
        )
        total += int(items.sum()) + child_items
    return Application(name="rich", kernels=kernels, flat_items=total)
