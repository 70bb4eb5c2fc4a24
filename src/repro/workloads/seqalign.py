"""Sequence Alignment — Table I ``SA-thaliana`` (plus ``SA-elegans``, Fig. 21).

Read mapping in the BitMapper style: reads are divided into sections, each
parent thread owns one section and, for every read in it, verifies the
read's candidate locations against the reference.  Candidate counts are
heavy-tailed (repetitive genome regions), so a thread with a repetitive
read launches a child kernel whose threads verify one candidate each.

The parent thread walks its section sequentially, so launch calls are
spread across its execution (``at_fraction`` ramps over the section) — and
child kernels have several CTAs, which is why SA is bottlenecked by the
CTA-concurrency limit in the paper's DTBL comparison (Fig. 21).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.sim.kernel import Application, ChildRequest, KernelSpec
from repro.workloads.base import AddressAllocator

LOOKUP_ITEMS_PER_READ = 6  # seed lookup/filtering done by the parent itself
#: Reads arrive in batches (streamed from storage); one host kernel each.
BATCHES = 3
CYCLES_PER_CAND = 40.0  # verify = banded comparison over the read length
ACCESSES_PER_CAND = 1.0
CAND_BYTES = 64  # reference window touched per candidate
MIN_OFFLOAD = 2
CHILD_CTA = 32

#: (num_reads, zipf exponent, candidate cap) per input genome.
_INPUTS = {
    "thaliana": (3072, 1.25, 2048),
    "elegans": (2048, 1.35, 1024),
}


@functools.lru_cache(maxsize=None)
def _candidates(input_name: str, seed: int) -> np.ndarray:
    try:
        reads, exponent, cap = _INPUTS[input_name]
    except KeyError:
        raise ValueError(f"unknown SA input {input_name!r}") from None
    rng = np.random.default_rng(seed + 47)
    cands = np.minimum(rng.zipf(exponent, size=reads), cap)
    return cands.astype(np.int64)


def build(
    input_name: str,
    *,
    variant: str = "dp",
    seed: int = 1,
    cta_threads: Optional[int] = None,
) -> Application:
    """Build the SA application for one genome input."""
    cands = _candidates(input_name, seed)
    reads = cands.size
    alloc = AddressAllocator()
    ref_base = alloc.alloc(int(cands.sum()) * CAND_BYTES)
    offsets = np.zeros(reads, dtype=np.int64)
    np.cumsum(cands[:-1], out=offsets[1:])
    read_bases = ref_base + offsets * CAND_BYTES
    cta = cta_threads or CHILD_CTA
    name = f"SA-{input_name}"

    if variant != "dp":
        # Flat port: one thread per read, candidates verified serially.
        spec = KernelSpec(
            name=f"{name}-reads",
            threads_per_cta=128,
            thread_items=LOOKUP_ITEMS_PER_READ + cands,
            cycles_per_item=CYCLES_PER_CAND,
            accesses_per_item=ACCESSES_PER_CAND,
            mem_bases=read_bases,
            mem_stride=CAND_BYTES,
        )
        return Application(name=name, kernels=[spec], flat_items=int(cands.sum()))

    reads_per_batch = reads // BATCHES
    kernels = []
    for batch in range(BATCHES):
        lo = batch * reads_per_batch
        hi = reads if batch == BATCHES - 1 else lo + reads_per_batch
        items = np.full(hi - lo, LOOKUP_ITEMS_PER_READ, dtype=np.int64)
        requests = {}
        for read_idx, c, read_base in zip(
            range(lo, hi), cands[lo:hi].tolist(), read_bases[lo:hi].tolist()
        ):
            if c > MIN_OFFLOAD:
                requests[read_idx - lo] = ChildRequest(
                    name=f"{name}-read{read_idx}",
                    items=c,
                    cta_threads=cta,
                    cycles_per_item=CYCLES_PER_CAND,
                    accesses_per_item=ACCESSES_PER_CAND,
                    mem_base=read_base,
                    mem_stride=CAND_BYTES,
                )
            else:
                items[read_idx - lo] += c
        kernels.append(
            KernelSpec(
                name=f"{name}-batch{batch}",
                threads_per_cta=64,
                thread_items=items,
                cycles_per_item=CYCLES_PER_CAND,
                accesses_per_item=ACCESSES_PER_CAND,
                mem_bases=read_bases[lo:hi],
                mem_stride=CAND_BYTES,
                child_requests=requests,
            )
        )
    return Application(name=name, kernels=kernels, flat_items=int(cands.sum()))
