"""Adaptive Mesh Refinement — Table I ``AMR`` (combustion simulation input).

Time-stepped AMR: each step, a kernel advances every coarse cell; cells
whose error estimate exceeds the refinement criterion launch a child kernel
over their fine sub-grid, and the very hottest cells' children refine once
more — the nested launching pattern the paper calls out.  Refinement depth
(and hence child size) follows the error magnitude, so child kernels range
from tens to thousands of items and several of them carry multiple CTAs at
once: AMR hits the concurrent-CTA limit, and the preferred distribution
keeps all but the heaviest refinements inside the parent threads (the
paper's Observation 2 and the 4-8%-offload optimum of Fig. 5).

The synthetic "error field" is a smoothed random field: a combustion front
occupying a minority of the domain with a sharp intensity ramp.
"""

from __future__ import annotations

import functools
from typing import List, Optional

import numpy as np

from repro.sim.kernel import Application, ChildRequest, KernelSpec
from repro.workloads.base import REGISTRY, AddressAllocator, Benchmark

GRID = 128  # coarse cells per side -> 16384 coarse cells
BASE_ITEMS = 12  # advance/flux work per coarse cell
REFINE_FRACTION = 0.06  # of coarse cells refine at all
DEEP_FRACTION = 0.05  # of refined cells whose children refine again
MAX_FINE_ITEMS = 1536  # hottest cell's refinement work
MIN_FINE_ITEMS = 12
DEEP_ITEMS = 256  # work of one second-level refinement
TIME_STEPS = 3
CYCLES_PER_ITEM = 18.0
ACCESSES_PER_ITEM = 1.2
CELL_BYTES = 32
MIN_OFFLOAD = 8
CHILD_CTA = 64


@functools.lru_cache(maxsize=None)
def _error_field(seed: int) -> np.ndarray:
    """Smooth pseudo-error per coarse cell (combustion front shape)."""
    rng = np.random.default_rng(seed + 7)
    field = rng.random((GRID, GRID))
    for _ in range(2):
        field = (
            field
            + np.roll(field, 1, axis=0)
            + np.roll(field, -1, axis=0)
            + np.roll(field, 1, axis=1)
            + np.roll(field, -1, axis=1)
        ) / 5.0
    return field.ravel()


@functools.lru_cache(maxsize=None)
def _refinement(seed: int):
    """(refined cell ids, per-cell fine items, per-cell deep children)."""
    error = _error_field(seed)
    threshold = np.quantile(error, 1.0 - REFINE_FRACTION)
    refined = np.flatnonzero(error >= threshold)
    # Map error rank within the refined set onto a steep work ramp so the
    # hottest cells refine much deeper than the marginal ones.
    rank = np.argsort(np.argsort(error[refined]))  # 0 .. len-1
    frac = (rank + 1) / len(refined)
    fine = (MIN_FINE_ITEMS + (MAX_FINE_ITEMS - MIN_FINE_ITEMS) * frac**10).astype(
        np.int64
    )
    rng = np.random.default_rng(seed + 11)
    deep_mask = frac > (1.0 - DEEP_FRACTION)
    deep_count = np.where(deep_mask, rng.integers(1, 4, size=len(refined)), 0)
    return refined, fine, deep_count


def build(
    *,
    variant: str = "dp",
    seed: int = 1,
    cta_threads: Optional[int] = None,
) -> Application:
    """Build the AMR application."""
    cells = GRID * GRID
    refined, fine, deep_count = _refinement(seed)
    cta = cta_threads or CHILD_CTA

    alloc = AddressAllocator()
    coarse_base = alloc.alloc(cells * CELL_BYTES)
    fine_base = alloc.alloc(int(fine.sum()) * CELL_BYTES * TIME_STEPS)
    deep_base = alloc.alloc(int(deep_count.sum()) * DEEP_ITEMS * CELL_BYTES * TIME_STEPS)

    bases = coarse_base + np.arange(cells, dtype=np.int64) * CELL_BYTES
    fine_offsets = np.zeros(len(refined), dtype=np.int64)
    np.cumsum(fine[:-1], out=fine_offsets[1:])

    kernels: List[KernelSpec] = []
    flat_items = 0
    deep_cursor = 0
    for step in range(TIME_STEPS):
        requests = {}
        items = np.full(cells, BASE_ITEMS, dtype=np.int64)
        step_flat = BASE_ITEMS * cells
        for cid, child_items, deep, fine_offset in zip(
            refined.tolist(),
            fine.tolist(),
            deep_count.tolist(),
            fine_offsets.tolist(),
        ):
            nested = {}
            for d in range(deep):
                # Second-level refinement launched from the child's thread d.
                nested[d] = ChildRequest(
                    name=f"AMR-s{step}-c{cid}-d{d}",
                    items=DEEP_ITEMS,
                    cta_threads=cta,
                    cycles_per_item=CYCLES_PER_ITEM,
                    accesses_per_item=ACCESSES_PER_ITEM,
                    mem_base=deep_base + (deep_cursor + d) * DEEP_ITEMS * CELL_BYTES,
                    mem_stride=CELL_BYTES,
                    at_fraction=0.5,
                )
            deep_cursor += deep
            requests[cid] = ChildRequest(
                name=f"AMR-s{step}-c{cid}",
                items=child_items,
                cta_threads=cta,
                cycles_per_item=CYCLES_PER_ITEM,
                accesses_per_item=ACCESSES_PER_ITEM,
                mem_base=fine_base + fine_offset * CELL_BYTES,
                mem_stride=CELL_BYTES,
                nested=nested,
            )
            step_flat += child_items + deep * DEEP_ITEMS
        if variant == "dp":
            kernels.append(
                KernelSpec(
                    name=f"AMR-step{step}",
                    threads_per_cta=64,
                    thread_items=items,
                    cycles_per_item=CYCLES_PER_ITEM,
                    accesses_per_item=ACCESSES_PER_ITEM,
                    mem_bases=bases,
                    mem_stride=CELL_BYTES,
                    child_requests=requests,
                )
            )
        else:
            flat_thread_items = items.copy()
            for cid, req in requests.items():
                extra = req.items + sum(
                    r.items for rs in req.nested.values() for r in rs
                )
                flat_thread_items[cid] += extra
            kernels.append(
                KernelSpec(
                    name=f"AMR-step{step}",
                    threads_per_cta=64,
                    thread_items=flat_thread_items,
                    cycles_per_item=CYCLES_PER_ITEM,
                    accesses_per_item=ACCESSES_PER_ITEM,
                    mem_bases=bases,
                    mem_stride=CELL_BYTES,
                )
            )
        flat_items += step_flat
    return Application(name="AMR", kernels=kernels, flat_items=flat_items)


REGISTRY.register(
    Benchmark(
        name="AMR",
        application="Adaptive Mesh Refinement",
        input_name="Combustion Simulation",
        build_flat=lambda seed: build(variant="flat", seed=seed),
        build_dp=lambda seed, cta: build(variant="dp", seed=seed, cta_threads=cta),
        default_threshold=MIN_OFFLOAD,
        sweep_thresholds=(8, 32, 64, 128, 512, 1024, 2048),
        default_cta_threads=CHILD_CTA,
        description="Time-stepped AMR with nested refinement child kernels.",
    )
)
