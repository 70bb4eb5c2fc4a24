"""Sparse-dense Matrix Multiplication — Table I ``MM-small``/``MM-large``.

The paper's in-house MM: each parent thread multiplies one row of a sparse
multiplicand against a dense multiplier; in the DP version the thread
launches a child kernel whose threads each take one multiplier column.  Row
populations (nnz) follow a lognormal distribution — sparse matrices with a
pronounced row-length skew — so a *small number of heavyweight* child
kernels are launched and the benchmark prefers offloading nearly everything
(the paper's Observation 3).

One work *item* is a block of :data:`NNZ_PER_ITEM` multiply-accumulates of
one output element; a row's total work is ``columns * nnz / NNZ_PER_ITEM``.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.sim.kernel import Application, ChildRequest, KernelSpec
from repro.workloads.base import REGISTRY, AddressAllocator, Benchmark

COLUMNS = 128  # dense multiplier width
NNZ_PER_ITEM = 8
CYCLES_PER_ITEM = 12.0
ACCESSES_PER_ITEM = 1.5
VALUE_BYTES = 8  # index + value
MIN_OFFLOAD = 64
CHILD_CTA = 128
#: Rows are processed in sequential tiles (blocked SpMM); one kernel each.
PASSES = 3

#: (rows, lognormal mean, lognormal sigma, nnz cap) per input.
_INPUTS = {
    "small": (2048, 3.0, 1.0, 256),
    "large": (4096, 3.3, 1.1, 384),
}


@functools.lru_cache(maxsize=None)
def _row_nnz(input_name: str, seed: int) -> np.ndarray:
    try:
        rows, mu, sigma, cap = _INPUTS[input_name]
    except KeyError:
        raise ValueError(f"unknown MM input {input_name!r}") from None
    rng = np.random.default_rng(seed + 31)
    nnz = np.round(np.exp(rng.normal(mu, sigma, size=rows))).astype(np.int64)
    return np.clip(nnz, 2, cap)


def build(
    input_name: str,
    *,
    variant: str = "dp",
    seed: int = 1,
    cta_threads: Optional[int] = None,
) -> Application:
    """Build the MM application for one sparse input."""
    nnz = _row_nnz(input_name, seed)
    rows = nnz.size
    row_items = np.maximum(COLUMNS * nnz // NNZ_PER_ITEM, 1)
    alloc = AddressAllocator()
    a_base = alloc.alloc(int(nnz.sum()) * VALUE_BYTES)  # sparse rows
    offsets = np.zeros(rows, dtype=np.int64)
    np.cumsum(nnz[:-1], out=offsets[1:])
    bases = a_base + offsets * VALUE_BYTES
    cta = cta_threads or CHILD_CTA
    name = f"MM-{input_name}"
    if variant != "dp":
        spec = KernelSpec(
            name=f"{name}-rows",
            threads_per_cta=128,
            thread_items=row_items,
            cycles_per_item=CYCLES_PER_ITEM,
            accesses_per_item=ACCESSES_PER_ITEM,
            mem_bases=bases,
            mem_stride=VALUE_BYTES,
        )
        return Application(name=name, kernels=[spec], flat_items=int(row_items.sum()))

    rows_per_pass = rows // PASSES
    kernels = []
    for p in range(PASSES):
        lo = p * rows_per_pass
        hi = rows if p == PASSES - 1 else lo + rows_per_pass
        tile_items = row_items[lo:hi]
        offload = tile_items > MIN_OFFLOAD
        items = np.where(offload, 2, tile_items)
        tids = np.flatnonzero(offload)
        requests = {
            tid: ChildRequest(
                name=f"{name}-row{lo + tid}",
                items=work,
                cta_threads=cta,
                # One child thread per multiplier column.
                items_per_thread=max(1, work // COLUMNS),
                regs_per_thread=24,
                cycles_per_item=CYCLES_PER_ITEM,
                accesses_per_item=ACCESSES_PER_ITEM,
                mem_base=base,
                mem_stride=VALUE_BYTES,
            )
            for tid, work, base in zip(
                tids.tolist(), tile_items[tids].tolist(), bases[lo + tids].tolist()
            )
        }
        kernels.append(
            KernelSpec(
                name=f"{name}-rows{p}",
                threads_per_cta=128,
                thread_items=items,
                cycles_per_item=CYCLES_PER_ITEM,
                accesses_per_item=ACCESSES_PER_ITEM,
                mem_bases=bases[lo:hi],
                mem_stride=VALUE_BYTES,
                child_requests=requests,
            )
        )
    return Application(name=name, kernels=kernels, flat_items=int(row_items.sum()))


def _register(input_name: str, input_label: str) -> Benchmark:
    return REGISTRY.register(
        Benchmark(
            name=f"MM-{input_name}",
            application="Matrix Multiplication",
            input_name=input_label,
            build_flat=lambda seed, i=input_name: build(i, variant="flat", seed=seed),
            build_dp=lambda seed, cta, i=input_name: build(
                i, variant="dp", seed=seed, cta_threads=cta
            ),
            default_threshold=MIN_OFFLOAD,
            sweep_thresholds=(64, 256, 1024, 4096, 16384),
            default_cta_threads=CHILD_CTA,
            description="Sparse row x dense matrix; heavyweight child kernel per row.",
        )
    )


_register("small", "Small sparse matrix")
_register("large", "Large sparse matrix")
