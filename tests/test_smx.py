"""Unit tests for the processor-sharing SMX model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.reference import ReferenceSMX
from repro.errors import SimulationError
from repro.sim.config import GPUConfig, small_debug_gpu
from repro.sim.instances import CTAInstance, KernelInstance, PendingDecision
from repro.sim.kernel import ChildRequest, KernelSpec
from repro.sim.smx import SMX


def make_kernel():
    spec = KernelSpec(
        name="k", threads_per_cta=32, thread_items=np.ones(32, dtype=np.int64)
    )
    return KernelInstance(0, spec, stream_id=0, is_child=False)


def make_cta(work=100.0, issue=None, warps=1, threads=32, regs=512, shmem=0,
             decisions=None):
    issue = work if issue is None else issue
    return CTAInstance(
        make_kernel(),
        0,
        num_threads=threads,
        num_warps=warps,
        regs=regs,
        shmem=shmem,
        warp_total=[work] * warps,
        warp_issue=[issue] * warps,
        decisions=decisions,
    )


@pytest.fixture
def smx():
    return SMX(0, small_debug_gpu())


class TestResourceAccounting:
    def test_add_remove_tracks_usage(self, smx):
        cta = make_cta()
        smx.add(cta, 0.0)
        assert smx.used_threads == 32
        assert smx.used_regs == 512
        assert smx.num_resident == 1
        smx.remove(cta, 0.0)
        assert smx.used_threads == 0
        assert smx.num_resident == 0

    def test_can_fit_cta_slot_limit(self, smx):
        for _ in range(smx.config.max_ctas_per_smx):
            smx.add(make_cta(threads=8, regs=8), 0.0)
        assert not smx.can_fit(threads=8, regs=8, shmem=0)
        assert not smx.has_free_cta_slot

    def test_can_fit_thread_limit(self, smx):
        smx.add(make_cta(threads=smx.config.max_threads_per_smx), 0.0)
        assert not smx.can_fit(threads=1, regs=0, shmem=0)

    def test_can_fit_register_limit(self, smx):
        assert not smx.can_fit(threads=1, regs=smx.config.registers_per_smx + 1, shmem=0)

    def test_can_fit_shmem_limit(self, smx):
        assert not smx.can_fit(
            threads=1, regs=0, shmem=smx.config.shared_mem_per_smx + 1
        )

    def test_add_when_full_raises(self, smx):
        smx.add(make_cta(threads=smx.config.max_threads_per_smx), 0.0)
        with pytest.raises(SimulationError):
            smx.add(make_cta(), 0.0)

    def test_remove_foreign_cta_raises(self, smx):
        with pytest.raises(SimulationError):
            smx.remove(make_cta(), 0.0)


class TestProcessorSharing:
    def test_uncontended_cta_runs_at_full_rate(self, smx):
        cta = make_cta(work=100.0, issue=50.0)
        smx.add(cta, 0.0)
        assert smx.scale == 1.0
        assert smx.next_event_time(0.0) == pytest.approx(100.0)

    def test_oversubscription_slows_uniformly(self, smx):
        # Each CTA demands the full capacity; two of them halve the rate.
        ctas = [make_cta(work=100.0, warps=8) for _ in range(2)]
        for cta in ctas:
            cta.demand = smx.capacity  # force known demand
            smx.resident.append(cta)
            smx._total_demand += cta.demand
        assert smx.scale == pytest.approx(0.5)

    def test_advance_integrates_progress(self, smx):
        cta = make_cta(work=100.0)
        smx.add(cta, 0.0)
        smx.advance(40.0)
        assert cta.consumed == pytest.approx(40.0)
        assert cta.remaining == pytest.approx(60.0)

    def test_advance_clamps_at_total_work(self, smx):
        cta = make_cta(work=100.0)
        smx.add(cta, 0.0)
        smx.advance(500.0)
        assert cta.consumed == pytest.approx(100.0)

    def test_advance_backwards_raises(self, smx):
        smx.advance(10.0)
        with pytest.raises(SimulationError):
            smx.advance(5.0)

    def test_work_conservation_under_sharing(self, smx):
        """Summed progress rate never exceeds issue capacity."""
        ctas = [make_cta(work=1000.0, warps=4) for _ in range(4)]
        for cta in ctas:
            smx.add(cta, 0.0)
        smx.advance(100.0)
        consumed_issue = sum(c.demand * c.consumed for c in ctas)
        assert consumed_issue <= smx.capacity * 100.0 + 1e-6

    def test_pop_finished_detaches_done(self, smx):
        fast = make_cta(work=50.0)
        slow = make_cta(work=500.0)
        smx.add(fast, 0.0)
        smx.add(slow, 0.0)
        when = smx.next_event_time(0.0)
        finished = smx.pop_finished(when)
        assert finished == [fast]
        assert smx.resident == [slow]


class TestDecisionHorizon:
    def _with_decision(self, at):
        req = ChildRequest(name="c", items=4, cta_threads=32)
        return make_cta(
            work=100.0,
            decisions=[PendingDecision(at_consumed=at, warp=0, tid=0, request=req)],
        )

    def test_next_event_stops_at_decision(self, smx):
        smx.add(self._with_decision(30.0), 0.0)
        assert smx.next_event_time(0.0) == pytest.approx(30.0)

    def test_ctas_with_fired_decisions(self, smx):
        cta = self._with_decision(30.0)
        smx.add(cta, 0.0)
        smx.advance(30.0)
        assert smx.ctas_with_fired_decisions() == [cta]

    def test_decision_blocks_completion(self, smx):
        cta = self._with_decision(100.0)
        smx.add(cta, 0.0)
        smx.advance(100.0)
        assert smx.pop_finished(100.0) == []
        cta.pop_fired_decisions()
        assert smx.pop_finished(100.0) == [cta]

    def test_refresh_demand_adjusts_totals(self, smx):
        cta = make_cta(work=100.0, issue=50.0)
        smx.add(cta, 0.0)
        before = smx._total_demand
        cta.extend_thread(0, 0, 100.0, 100.0)
        smx.refresh_demand(cta, 0.0)
        assert smx._total_demand > before

    def test_empty_smx_has_no_events(self, smx):
        assert smx.next_event_time(0.0) is None

    def test_compute_utilization(self, smx):
        assert smx.compute_utilization == 0.0
        cta = make_cta(work=100.0, issue=100.0)
        smx.add(cta, 0.0)
        assert 0.0 < smx.compute_utilization <= 1.0


def _cta_pair(draw):
    """Two identical CTAs, one for each SMX under comparison."""
    warps = draw(st.integers(min_value=1, max_value=4))
    totals = [draw(st.floats(1.0, 1e4, allow_nan=False)) for _ in range(warps)]
    issues = [t * draw(st.floats(0.0, 1.0)) for t in totals]
    points = [(draw(st.floats(0.0, 1.0)), draw(st.integers(0, warps - 1)))
              for _ in range(draw(st.integers(0, 3)))]
    scale = draw(st.sampled_from([0.35, 1.0]))
    req = ChildRequest(name="c", items=4, cta_threads=32)

    def build():
        return CTAInstance(
            make_kernel(), 0, num_threads=32, num_warps=warps, regs=512,
            shmem=0, warp_total=list(totals), warp_issue=list(issues),
            decisions=[PendingDecision(at_consumed=f * totals[w], warp=w,
                                       tid=w * 32, request=req)
                       for f, w in points],
            demand_scale=scale,
        )

    return build(), build()


def _bits(when):
    return None if when is None else when.hex()


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_pop_finished_leaves_the_from_scratch_horizon(data):
    """After the one-pass retire, the cached horizon is the one the
    reference SMX derives from scratch, bit for bit, also after more
    placements at the same timestamp."""
    draw = data.draw
    config = GPUConfig()
    fast, ref = SMX(0, config), ReferenceSMX(0, config)
    twin = {}
    now = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            if fast.can_fit(threads=32, regs=512, shmem=0):
                a, b = _cta_pair(draw)
                twin[a] = b
                fast.add(a, now)
                ref.add(b, now)
        when = fast.next_event_time(now)
        assert _bits(when) == _bits(ref.next_event_time(now))
        if when is None:
            continue
        # The event time, or a point short of it (a placement elsewhere).
        now = when if draw(st.booleans()) else now + (when - now) * draw(
            st.floats(0.0, 1.0))
        fast.advance(now)
        ref.advance(now)
        fired = fast.ctas_with_fired_decisions()
        assert [twin[c] for c in fired] == ref.ctas_with_fired_decisions()
        for cta in fired:
            extra = draw(st.floats(0.0, 500.0))
            for side, smx in ((cta, fast), (twin[cta], ref)):
                decisions = side.pop_fired_decisions()
                for decision in decisions:
                    side.extend_thread(decision.warp, decision.tid, extra, extra / 2)
                smx.refresh_demand(side, now)
        if draw(st.booleans()):  # a query first leaves a valid cache to retire
            assert _bits(fast.next_event_time(now)) == _bits(
                ref.next_event_time(now))
        finished = fast.pop_finished(now)
        assert [twin[c] for c in finished] == ref.pop_finished(now)
        if fast.resident:
            assert fast._slack_valid
        assert _bits(fast.next_event_time(now)) == _bits(ref.next_event_time(now))
