"""Mandelbrot Set — Table I ``Mandel``.

Mariani-Silver style subdivision: the image is tiled into blocks; a parent
thread samples its block cheaply and, if the block straddles the set
boundary (high, varied iteration counts), launches a child kernel that
evaluates every pixel.  Interior/exterior blocks are filled serially.  The
per-block iteration counts come from an actual escape-time computation, so
the work distribution is the real one: a compute-bound workload (few memory
accesses per item), unlike the graph benchmarks.

One work *item* is :data:`ITERS_PER_ITEM` escape iterations of one pixel.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.sim.kernel import Application, ChildRequest, KernelSpec
from repro.workloads.base import AddressAllocator

WIDTH = 512
HEIGHT = 512
BLOCK = 16  # pixels per block side
MAX_ITERS = 256
ITERS_PER_ITEM = 4
CYCLES_PER_ITEM = 8.0
ACCESSES_PER_ITEM = 0.1  # compute-bound
PIXEL_BYTES = 4
MIN_OFFLOAD = 24
THREADS_PER_CTA = 128
#: Progressive-rendering passes; one host kernel each.
PASSES = 2


def _escape_iterations(c: np.ndarray) -> np.ndarray:
    """Escape-time iterations of each point of the 1-D complex array ``c``.

    A point's count is how many of the :data:`MAX_ITERS` steps
    ``z = z*z + c`` it survives with ``|z| <= 2``.  Only the points still
    live (``idx``, in input order) are iterated, so every step applies the
    same arithmetic to exactly the live elements.
    """
    z = np.zeros_like(c)
    idx = np.arange(c.size)
    iters = np.zeros(c.size, dtype=np.int64)
    for _ in range(MAX_ITERS):
        z = z * z + c
        live = ~(np.abs(z) > 2.0)
        idx, z, c = idx[live], z[live], c[live]
        iters[idx] += 1
        if not idx.size:
            break
    return iters


@functools.lru_cache(maxsize=None)
def _block_items(seed: int) -> np.ndarray:
    """Per-block work items from a real escape-time computation.

    ``seed`` jitters the viewport slightly so different seeds give
    different (but statistically identical) workloads.
    """
    rng = np.random.default_rng(seed)
    cx = -0.6 + rng.uniform(-0.02, 0.02)
    cy = 0.0 + rng.uniform(-0.02, 0.02)
    scale = 1.4
    xs = np.linspace(cx - scale, cx + scale, WIDTH)
    ys = np.linspace(cy - scale, cy + scale, HEIGHT)
    iters = _escape_iterations((xs[None, :] + 1j * ys[:, None]).ravel())
    # Sum iterations per block, convert to items.
    blocks_y = HEIGHT // BLOCK
    blocks_x = WIDTH // BLOCK
    per_block = iters.reshape(blocks_y, BLOCK, blocks_x, BLOCK).sum(axis=(1, 3))
    items = np.maximum(per_block.ravel() // ITERS_PER_ITEM, 1)
    return items.astype(np.int64)


def build(
    *,
    variant: str = "dp",
    seed: int = 1,
    cta_threads: Optional[int] = None,
) -> Application:
    """Build the Mandelbrot application."""
    block_items = _block_items(seed)
    num_blocks = block_items.size
    pixels_per_block = BLOCK * BLOCK
    alloc = AddressAllocator()
    img_base = alloc.alloc(WIDTH * HEIGHT * PIXEL_BYTES)
    bases = img_base + np.arange(num_blocks, dtype=np.int64) * pixels_per_block * PIXEL_BYTES
    cta = cta_threads or THREADS_PER_CTA
    if variant != "dp":
        spec = KernelSpec(
            name="Mandel-blocks",
            threads_per_cta=128,
            thread_items=block_items,
            cycles_per_item=CYCLES_PER_ITEM,
            accesses_per_item=ACCESSES_PER_ITEM,
            mem_bases=bases,
            mem_stride=PIXEL_BYTES,
        )
        return Application(
            name="Mandel", kernels=[spec], flat_items=int(block_items.sum())
        )

    # Progressive rendering: the image is produced in sequential passes.
    blocks_per_pass = num_blocks // PASSES
    kernels = []
    for p in range(PASSES):
        lo = p * blocks_per_pass
        hi = num_blocks if p == PASSES - 1 else lo + blocks_per_pass
        tile = block_items[lo:hi]
        offload = tile > MIN_OFFLOAD
        # The border sample costs ~one item per block edge pixel row.
        items = np.where(offload, 4, tile)
        tids = np.flatnonzero(offload)
        requests = {
            tid: ChildRequest(
                name=f"Mandel-b{lo + tid}",
                items=work,
                cta_threads=cta,
                items_per_thread=max(1, work // pixels_per_block),
                cycles_per_item=CYCLES_PER_ITEM,
                accesses_per_item=ACCESSES_PER_ITEM,
                mem_base=base,
                mem_stride=PIXEL_BYTES,
            )
            for tid, work, base in zip(
                tids.tolist(), tile[tids].tolist(), bases[lo + tids].tolist()
            )
        }
        kernels.append(
            KernelSpec(
                name=f"Mandel-blocks{p}",
                threads_per_cta=128,
                thread_items=items,
                cycles_per_item=CYCLES_PER_ITEM,
                accesses_per_item=ACCESSES_PER_ITEM,
                mem_bases=bases[lo:hi],
                mem_stride=PIXEL_BYTES,
                child_requests=requests,
            )
        )
    return Application(
        name="Mandel", kernels=kernels, flat_items=int(block_items.sum())
    )
