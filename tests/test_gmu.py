"""Unit tests for the Grid Management Unit (streams, HWQs, dispatch order)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.config import small_debug_gpu
from repro.sim.gmu import GMU
from repro.sim.instances import KernelInstance, KernelState
from repro.sim.kernel import KernelSpec


def make_kernel(kid=0, stream=0, ctas=2):
    spec = KernelSpec(
        name=f"k{kid}",
        threads_per_cta=32,
        thread_items=np.ones(32 * ctas, dtype=np.int64),
    )
    return KernelInstance(kid, spec, stream_id=stream, is_child=False)


@pytest.fixture
def gmu():
    return GMU(small_debug_gpu())  # 4 HWQs


class TestBinding:
    def test_submit_binds_stream_and_activates_head(self, gmu):
        kernel = make_kernel()
        gmu.submit(kernel)
        assert kernel.state is KernelState.EXECUTING
        assert gmu.num_bound == 1

    def test_hwq_limit_enforced(self, gmu):
        kernels = [make_kernel(kid=i, stream=i) for i in range(6)]
        for kernel in kernels:
            gmu.submit(kernel)
        assert gmu.num_bound == 4
        assert gmu.num_waiting_streams == 2
        assert kernels[4].state is KernelState.PENDING

    def test_fcfs_binding_order(self, gmu):
        kernels = [make_kernel(kid=i, stream=i) for i in range(6)]
        for kernel in kernels:
            gmu.submit(kernel)
        executing = {k.kernel_id for k in gmu.executing_kernels()}
        assert executing == {0, 1, 2, 3}
        # Completing stream 0's kernel binds stream 4 (FCFS).
        self._finish(gmu, kernels[0])
        executing = {k.kernel_id for k in gmu.executing_kernels()}
        assert executing == {1, 2, 3, 4}

    @staticmethod
    def _finish(gmu, kernel):
        while kernel.has_undispatched_ctas:
            kernel.take_next_cta_index()
        gmu.on_kernel_complete(kernel)

    def test_same_stream_kernels_serialize(self, gmu):
        first = make_kernel(kid=0, stream=7)
        second = make_kernel(kid=1, stream=7)
        gmu.submit(first)
        gmu.submit(second)
        assert first.state is KernelState.EXECUTING
        assert second.state is KernelState.PENDING
        assert gmu.num_bound == 1
        self._finish(gmu, first)
        assert second.state is KernelState.EXECUTING

    def test_pending_kernel_counter(self, gmu):
        for i in range(3):
            gmu.submit(make_kernel(kid=i, stream=i))
        assert gmu.pending_kernels == 3
        assert gmu.peak_pending_kernels == 3


class TestDispatchIteration:
    def test_yields_only_kernels_with_ctas(self, gmu):
        kernel = make_kernel()
        gmu.submit(kernel)
        assert list(gmu.dispatchable_kernels()) == [kernel]
        kernel.take_next_cta_index()
        kernel.take_next_cta_index()
        assert list(gmu.dispatchable_kernels()) == []

    def test_round_robin_cursor_persists(self, gmu):
        a = make_kernel(kid=0, stream=0, ctas=4)
        b = make_kernel(kid=1, stream=1, ctas=4)
        gmu.submit(a)
        gmu.submit(b)
        first_pass = [k.kernel_id for k in gmu.dispatchable_kernels()]
        assert sorted(first_pass) == [0, 1]
        # Consuming only the first yield advances the cursor past it, so a
        # fresh iteration starts from the other stream.
        gen = gmu.dispatchable_kernels()
        first = next(gen)
        gen.close()
        second = next(gmu.dispatchable_kernels())
        assert first is not second


def bound_gmu(threads, cursor):
    """A GMU with one bound head per stream, CTAs of ``threads[i]`` threads."""
    gmu = GMU(small_debug_gpu())  # 4 HWQs
    for kid, tpc in enumerate(threads):
        spec = KernelSpec(name=f"k{kid}", threads_per_cta=tpc,
                          thread_items=np.ones(2 * tpc, dtype=np.int64))
        gmu.submit(KernelInstance(kid, spec, stream_id=kid, is_child=False))
    gmu._rr_cursor = cursor
    return gmu


class TestSkippedShapes:
    THREADS = [32, 64, 32, 96]

    @pytest.mark.parametrize("cursor", range(4))
    @pytest.mark.parametrize("skipped", [(), (64,), (32,), (96,), (32, 96),
                                         (32, 64, 96)])
    def test_skip_filters_heads_and_keeps_the_cursor(self, cursor, skipped):
        plain = bound_gmu(self.THREADS, cursor)
        filtered = bound_gmu(self.THREADS, cursor)
        skip = {k.shape for k in plain.executing_kernels()
                if k.spec.threads_per_cta in skipped}
        expected = [k.kernel_id for k in plain.dispatchable_kernels()
                    if k.shape not in skip]
        got = [k.kernel_id for k in filtered.dispatchable_kernels(skip)]
        assert got == expected
        assert filtered._rr_cursor == plain._rr_cursor

    def test_skipped_last_head_still_moves_the_cursor(self):
        gmu = bound_gmu(self.THREADS, 0)
        skip = {gmu.executing_kernels()[3].shape}  # the 96-thread head
        assert [k.kernel_id for k in gmu.dispatchable_kernels(skip)] == [0, 1, 2]
        assert gmu._rr_cursor == 0  # past head 3, as a rejected yield leaves it

    def test_skip_is_read_live_between_yields(self):
        gmu = bound_gmu(self.THREADS, 0)
        skip = set()
        scan = gmu.dispatchable_kernels(skip)
        first = next(scan)
        assert first.kernel_id == 0
        skip.add(first.shape)  # the caller failed to place it
        assert [k.kernel_id for k in scan] == [1, 3]
        assert gmu._rr_cursor == 0


class TestCompletion:
    def test_complete_non_head_raises(self, gmu):
        first = make_kernel(kid=0, stream=3)
        second = make_kernel(kid=1, stream=3)
        gmu.submit(first)
        gmu.submit(second)
        with pytest.raises(SimulationError):
            gmu.on_kernel_complete(second)

    def test_complete_releases_hwq(self, gmu):
        kernel = make_kernel()
        gmu.submit(kernel)
        gmu.on_kernel_complete(kernel)
        assert gmu.num_bound == 0
        assert gmu.drained()
        assert kernel.state is KernelState.COMPLETE

    def test_suspension_releases_hwq_but_not_completion(self, gmu):
        kernel = make_kernel()
        gmu.submit(kernel)
        gmu.on_kernel_suspended(kernel)
        assert gmu.num_bound == 0
        assert kernel.state is KernelState.PENDING

    def test_suspension_lets_waiting_stream_in(self, gmu):
        kernels = [make_kernel(kid=i, stream=i) for i in range(5)]
        for kernel in kernels:
            gmu.submit(kernel)
        assert kernels[4].state is KernelState.PENDING
        gmu.on_kernel_suspended(kernels[0])
        assert kernels[4].state is KernelState.EXECUTING
