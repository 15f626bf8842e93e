"""Stream-mechanism scheduling under the fault model.

The paper's streams-vs-kernel ablation (§V) compares two concurrency
mechanisms for the same operation sets, selected by ``n_streams`` (0 is
the multi-operation kernel). These tests extend that ablation to faulty
devices: retry launches are charged under whichever mechanism issued
them, the *fault trajectory* (which attempts fault, what recovery does)
is mechanism-independent, and the pool/degradation models built on top
stay consistent.
"""

from __future__ import annotations

import pytest

from repro.core import make_plan
from repro.exec import FaultSpec, RetryPolicy
from repro.gpu import GP100, SimulatedDevice, WorkloadDims, price_launches
from repro.trees import balanced_tree

DIMS = WorkloadDims(patterns=256, states=4)
SPEC = FaultSpec(rate=0.5, seed=17)


def streams_timing(sizes, n_streams):
    """Fault-free stream pricing: one stream round per set size."""
    return price_launches(GP100, [[(k, DIMS)] for k in sizes], n_streams)


@pytest.fixture(scope="module")
def plan():
    return make_plan(balanced_tree(16), "concurrent")


@pytest.fixture(scope="module")
def device():
    return SimulatedDevice(GP100)


class TestResilientStreamsTiming:
    def test_fault_trajectory_is_mechanism_independent(self, device, plan):
        # Same seeded schedule, same recovery decisions — only the cost
        # of each launch differs between kernel and stream scheduling.
        _kt, kernel_stats = device.time_plan_resilient(
            plan, DIMS, SPEC, RetryPolicy(), n_streams=0
        )
        _st, stream_stats = device.time_plan_resilient(
            plan, DIMS, SPEC, RetryPolicy(), n_streams=4
        )
        assert stream_stats.format() == kernel_stats.format()
        assert stream_stats.injected == kernel_stats.injected > 0

    def test_retry_launches_are_charged_stream_prices(self, device, plan):
        clean = streams_timing(plan.set_sizes, 4)
        faulty, stats = device.time_plan_resilient(
            plan, DIMS, SPEC, RetryPolicy(), n_streams=4
        )
        assert stats.retried > 0
        assert faulty.seconds > clean.seconds
        assert faulty.n_launches > len(plan.set_sizes)

    def test_fault_free_streams_match_ablation_path(self, device, plan):
        timing, stats = device.time_plan_resilient(
            plan,
            DIMS,
            FaultSpec(rate=0.0),
            RetryPolicy(),
            n_streams=4,
        )
        clean = streams_timing(plan.set_sizes, 4)
        assert timing.seconds == pytest.approx(clean.seconds)
        assert stats.injected == 0

    def test_more_streams_never_slow_recovery(self, device, plan):
        wide, _ = device.time_plan_resilient(
            plan, DIMS, SPEC, RetryPolicy(), n_streams=8
        )
        narrow, _ = device.time_plan_resilient(
            plan, DIMS, SPEC, RetryPolicy(), n_streams=2
        )
        assert wide.seconds <= narrow.seconds

    def test_unknown_mechanism_rejected(self, device, plan):
        # A negative stream count names no mechanism.
        with pytest.raises(ValueError):
            device.time_plan_resilient(
                plan, DIMS, SPEC, RetryPolicy(), n_streams=-1
            )


class TestPoolModelMechanisms:
    def test_pool_accounting_closes_under_streams(self, device, plan):
        timing = device.time_pool(
            plan,
            DIMS,
            24,
            4,
            worker_fault_specs=[SPEC, None, None, FaultSpec(rate=0.9, seed=3)],
            policy=RetryPolicy(),
            n_streams=4,
        )
        assert timing.completed + timing.surfaced == 24
        assert timing.seconds > 0
        assert timing.throughput > 0

    @pytest.mark.parametrize("n_streams", [0, 4])
    def test_healthy_workers_priced_under_the_pool_mechanism(self, device, n_streams):
        # A clean worker's job costs one fault-free evaluation under the
        # same mechanism its faulty neighbours replay.
        plan = make_plan(balanced_tree(32), "concurrent")
        dims = WorkloadDims(patterns=512)
        job = price_launches(
            GP100, [[(k, dims)] for k in plan.set_sizes], n_streams
        ).seconds
        timing = device.time_pool(plan, dims, 4, 4, n_streams=n_streams)
        assert timing.busy_seconds == (job,) * 4

    def test_degraded_fleet_curve_monotone_both_mechanisms(self, device, plan):
        for n_streams in (0, 4):
            curve = device.degraded_fleet_curve(
                plan, DIMS, 32, 4, n_streams=n_streams
            )
            throughputs = [t for _evicted, t in curve]
            assert len(curve) == 4
            assert throughputs == sorted(throughputs, reverse=True)
            assert all(t > 0 for t in throughputs)
