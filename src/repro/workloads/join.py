"""Relational Join — Table I ``JOIN-uniform``/``JOIN-gaussian``.

Hash-join probe phase: one parent thread per R-side bucket, whose work is
the number of matching S-side tuples.  With *uniform* data every bucket
matches about the same number of tuples — the workload is balanced, DP adds
only overhead, and the preferred distribution keeps (nearly) everything in
the parent threads (the paper's Observation 2).  With *gaussian* (skewed)
data a minority of buckets carry long match lists and benefit modestly from
child kernels (Observation 4's 4% case).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.sim.kernel import Application, ChildRequest, KernelSpec
from repro.workloads.base import REGISTRY, AddressAllocator, Benchmark

NUM_BUCKETS = 1024
MIN_OFFLOAD = 64
CYCLES_PER_MATCH = 36.0
ACCESSES_PER_MATCH = 0.25
TUPLE_BYTES = 8
THREADS_PER_CTA = 64
BOOKKEEPING_PER_BUCKET = 16  # hash + R-tuple read done by the parent itself
#: The probe runs as sequential partition passes (memory-footprint-sized
#: batches, standard for GPU hash joins); each pass is one host kernel.
PASSES = 2


@functools.lru_cache(maxsize=None)
def _matches(input_name: str, seed: int) -> np.ndarray:
    """Matching S-tuples per R bucket."""
    rng = np.random.default_rng(seed + 17)
    if input_name == "uniform":
        m = rng.integers(1408, 1664, size=NUM_BUCKETS)
    elif input_name == "gaussian":
        # Product of two gaussian-distributed key frequencies: lognormal-ish
        # tail over a balanced core.
        m = np.round(np.exp(rng.normal(7.0, 0.5, size=NUM_BUCKETS))).astype(np.int64)
        m = np.clip(m, 64, 4096)
    else:
        raise ValueError(f"unknown JOIN input {input_name!r}")
    return m.astype(np.int64)


def build(
    input_name: str,
    *,
    variant: str = "dp",
    seed: int = 1,
    cta_threads: Optional[int] = None,
) -> Application:
    """Build the join probe kernel for one data distribution."""
    matches = _matches(input_name, seed)
    alloc = AddressAllocator()
    s_base = alloc.alloc(int(matches.sum()) * TUPLE_BYTES)
    offsets = np.zeros(NUM_BUCKETS, dtype=np.int64)
    np.cumsum(matches[:-1], out=offsets[1:])
    bucket_bases = s_base + offsets * TUPLE_BYTES
    cta = cta_threads or 64
    name = f"JOIN-{input_name}"

    if variant != "dp":
        # Flat port: one thread per bucket, matches probed serially.
        spec = KernelSpec(
            name=f"{name}-probe",
            threads_per_cta=THREADS_PER_CTA,
            thread_items=BOOKKEEPING_PER_BUCKET + matches,
            cycles_per_item=CYCLES_PER_MATCH,
            accesses_per_item=ACCESSES_PER_MATCH,
            mem_bases=bucket_bases,
            mem_stride=TUPLE_BYTES,
        )
        return Application(name=name, kernels=[spec], flat_items=int(matches.sum()))

    buckets_per_pass = NUM_BUCKETS // PASSES
    kernels = []
    for p in range(PASSES):
        lo = p * buckets_per_pass
        hi = NUM_BUCKETS if p == PASSES - 1 else lo + buckets_per_pass
        items = np.full(hi - lo, BOOKKEEPING_PER_BUCKET, dtype=np.int64)
        requests = {}
        for bucket, m, bucket_base in zip(
            range(lo, hi), matches[lo:hi].tolist(), bucket_bases[lo:hi].tolist()
        ):
            if m > MIN_OFFLOAD:
                requests[bucket - lo] = ChildRequest(
                    name=f"{name}-b{bucket}",
                    items=m,
                    cta_threads=cta,
                    cycles_per_item=CYCLES_PER_MATCH,
                    accesses_per_item=ACCESSES_PER_MATCH,
                    mem_base=bucket_base,
                    mem_stride=TUPLE_BYTES,
                )
            else:
                items[bucket - lo] += m
        kernels.append(
            KernelSpec(
                name=f"{name}-probe{p}",
                threads_per_cta=THREADS_PER_CTA,
                thread_items=items,
                cycles_per_item=CYCLES_PER_MATCH,
                accesses_per_item=ACCESSES_PER_MATCH,
                mem_bases=bucket_bases[lo:hi],
                mem_stride=TUPLE_BYTES,
                child_requests=requests,
            )
        )
    return Application(name=name, kernels=kernels, flat_items=int(matches.sum()))


def _register(input_name: str, input_label: str) -> Benchmark:
    return REGISTRY.register(
        Benchmark(
            name=f"JOIN-{input_name}",
            application="Relational Join",
            input_name=input_label,
            build_flat=lambda seed, i=input_name: build(i, variant="flat", seed=seed),
            build_dp=lambda seed, cta, i=input_name: build(
                i, variant="dp", seed=seed, cta_threads=cta
            ),
            default_threshold=MIN_OFFLOAD,
            sweep_thresholds=(64, 512, 1024, 1536, 2048, 4096),
            default_cta_threads=64,
            description="Hash-join probe; child kernel per heavy bucket.",
        )
    )


_register("uniform", "Uniform Data")
_register("gaussian", "Gaussian Data")
