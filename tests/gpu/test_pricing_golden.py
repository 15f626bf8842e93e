"""Golden table of device-model numbers.

Every number the analytical model produces — plan timings, fault and
pool replays, coalesced, sharded and gradient pricing, partitioned
launches and the evaluators' modelled seconds — is recomputed over a
fixed grid and compared with ``==`` against ``pricing_golden.json``.
The table was recorded before launch pricing was collapsed into
:func:`repro.gpu.perfmodel.price_launches`, so any drift in a single
bit of a modelled number fails here. The model sums float seconds
left to right, so the same table holds on every Python version.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.planner import make_gradient_plan, make_plan
from repro.data import random_patterns, simulate_alignment
from repro.exec.faults import FaultSpec
from repro.exec.resilient import RetryPolicy
from repro.exec.sharding import ShardedLikelihood, plan_shards
from repro.gpu import GP100, SMALL_GPU, SimulatedDevice, WorkloadDims, price_launches
from repro.inference import TreeLikelihood, run_mcmc
from repro.models import GTR, HKY85, JC69, discrete_gamma, single_rate
from repro.partition import PartitionedLikelihood, partition_by_ranges
from repro.trees import balanced_tree, pectinate_tree, random_attachment_tree

GOLDEN = Path(__file__).with_name("pricing_golden.json")

SPECS = {"gp100": GP100, "small": SMALL_GPU}
DIMS = {
    "p64": WorkloadDims(64),
    "p512c4": WorkloadDims(512, 4, 4),
    "p300s20c2": WorkloadDims(300, 20, 2),
}
STREAMS = (0, 4)


def _trees():
    return {
        "balanced": balanced_tree(16),
        "pectinate": pectinate_tree(16),
        "random": random_attachment_tree(16, 7),
    }


def _grid():
    """(key, tree, spec, dims) over every tree, device and shape."""
    for tname, tree in _trees().items():
        for sname, spec in SPECS.items():
            for dname, dims in DIMS.items():
                yield f"{tname}/{sname}/{dname}", tree, spec, dims


def _evaluation(timing):
    return {
        "seconds": timing.seconds,
        "gflops": timing.gflops,
        "occupancy": timing.mean_occupancy,
        "launches": [
            [t.n_operations, t.n_waves, t.seconds, t.flops, t.occupancy]
            for t in timing.launches
        ],
    }


def _time_plan():
    out = {}
    for key, tree, spec, dims in _grid():
        device = SimulatedDevice(spec)
        for mode in ("concurrent", "serial"):
            plan = make_plan(tree, mode)
            out[f"{key}/{mode}/s0"] = _evaluation(device.time_plan(plan, dims))
            out[f"{key}/{mode}/s4"] = _evaluation(
                price_launches(spec, [[(k, dims)] for k in plan.set_sizes], 4)
            )
    return out


def _resilient():
    out = {}
    policies = {"default": RetryPolicy(), "strict": RetryPolicy(max_retries=1)}
    for key, tree, spec, dims in _grid():
        device = SimulatedDevice(spec)
        plan = make_plan(tree)
        for n_streams in STREAMS:
            for seed in (1, 2):
                for pname, policy in policies.items():
                    timing, stats = device.time_plan_resilient(
                        plan,
                        dims,
                        FaultSpec(rate=0.25, seed=seed),
                        policy,
                        n_streams=n_streams,
                    )
                    out[f"{key}/s{n_streams}/seed{seed}/{pname}"] = [
                        timing.seconds,
                        timing.n_launches,
                        stats.format(),
                    ]
    return out


def _pool():
    out = {}
    for key, tree, spec, dims in _grid():
        device = SimulatedDevice(spec)
        plan = make_plan(tree)
        for n_streams in STREAMS:
            for seed in (3, 4):
                timing = device.time_pool(
                    plan,
                    dims,
                    12,
                    4,
                    worker_fault_specs=[
                        FaultSpec(rate=0.25, seed=seed),
                        None,
                        None,
                        FaultSpec(rate=0.9, seed=seed + 1),
                    ],
                    n_streams=n_streams,
                )
                out[f"{key}/s{n_streams}/seed{seed}"] = [
                    timing.seconds,
                    timing.throughput,
                    timing.completed,
                    timing.surfaced,
                    timing.rerouted,
                    list(timing.evicted),
                    list(timing.busy_seconds),
                    list(timing.jobs_per_worker),
                    timing.stats.format(),
                ]
    return out


def _fleet():
    out = {}
    for key, tree, spec, dims in _grid():
        device = SimulatedDevice(spec)
        plan = make_plan(tree)
        for n_streams in STREAMS:
            curve = device.degraded_fleet_curve(
                plan, dims, 32, 4, n_streams=n_streams
            )
            out[f"{key}/s{n_streams}"] = [list(point) for point in curve]
    return out


def _coalesce_row(timing):
    return [
        timing.coalesced_seconds,
        timing.solo_seconds,
        timing.coalesced_launches,
        timing.solo_launches,
        timing.width,
        timing.wasted_seconds,
        timing.speedup,
    ]


def _coalesced():
    out = {}
    plans = [make_plan(tree) for tree in _trees().values()]
    members = [plan.set_sizes for plan in plans] + [[3, 1], [1]]
    for sname, spec in SPECS.items():
        device = SimulatedDevice(spec)
        for dname, dims in DIMS.items():
            for n_streams in STREAMS:
                timing = device.time_coalesced(members, dims, n_streams=n_streams)
                out[f"{sname}/{dname}/s{n_streams}"] = _coalesce_row(timing)
            true = [dims.patterns, dims.patterns // 2, 1, dims.patterns - 3, 7]
            timing = device.time_coalesced(members, dims, member_patterns=true)
            out[f"{sname}/{dname}/padded"] = _coalesce_row(timing)
    return out


def _sharded():
    out = {}
    for key, tree, spec, dims in _grid():
        device = SimulatedDevice(spec)
        plan = make_plan(tree)
        for n_shards in (1, 3, 8):
            for n_workers in (1, 2):
                widths = [s.width for s in plan_shards(dims.patterns, n_shards)]
                timing = device.time_sharded(plan, dims, widths, n_workers=n_workers)
                out[f"{key}/n{n_shards}/w{n_workers}"] = [
                    timing.seconds,
                    timing.unsharded_seconds,
                    list(timing.shard_seconds),
                    list(timing.shard_widths),
                    list(timing.busy_seconds),
                    timing.overhead,
                    timing.speedup,
                ]
    return out


def _gradient():
    out = {}
    for key, tree, spec, dims in _grid():
        device = SimulatedDevice(spec)
        for mode in ("concurrent", "serial"):
            timing = device.time_gradient(
                tree, dims, plan=make_gradient_plan(tree, mode)
            )
            one = timing.one_sweep
            out[f"{key}/{mode}"] = {
                "one_sweep": [
                    one.seconds,
                    one.n_launches,
                    one.n_operations,
                    one.gflops,
                    one.mean_occupancy,
                ],
                "per_edge": [
                    timing.per_edge.seconds,
                    timing.per_edge.n_launches,
                    timing.per_edge.n_operations,
                    timing.per_edge.gflops,
                ],
                "n_edges": timing.n_edges,
                "speedup": timing.speedup,
            }
    return out


def _partitioned_likelihood(tree):
    aln = simulate_alignment(tree, JC69(), 90, seed=72)
    models = [JC69(), HKY85(2.0, [0.3, 0.2, 0.2, 0.3]), GTR([1, 2, 1, 1, 2, 1])]
    dataset = partition_by_ranges(
        aln,
        [(0, 30), (30, 60), (60, 90)],
        models,
        rates=[discrete_gamma(0.5, 2), discrete_gamma(1.0, 4), single_rate()],
    )
    return PartitionedLikelihood(tree, dataset)


def _partitioned():
    out = {}
    for tname, tree in _trees().items():
        pl = _partitioned_likelihood(tree)
        for sname, spec in SPECS.items():
            for concurrent in (True, False):
                timing = pl.device_timing(spec, concurrent_partitions=concurrent)
                out[f"{tname}/{sname}/{concurrent}"] = _evaluation(timing)
            out[f"{tname}/{sname}/speedup"] = pl.partition_concurrency_speedup(
                spec
            )
    return out


def _evaluators():
    out = {}
    model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
    for tname, tree in _trees().items():
        patterns = random_patterns(
            tree.tip_names(), 200, rng=np.random.default_rng(5)
        )
        rates = discrete_gamma(0.5, 4)
        tl = TreeLikelihood(tree, model, patterns, rates=rates)
        sharded = ShardedLikelihood(tree, model, patterns, n_shards=5, rates=rates)
        pl = _partitioned_likelihood(tree)
        for sname, spec in SPECS.items():
            out[f"{tname}/{sname}"] = [
                tl.modelled_seconds(spec),
                sharded.modelled_seconds(spec),
                [s.width for s in sharded.shards],
                pl.modelled_seconds(spec),
            ]
            for incremental in (False, True):
                result = run_mcmc(
                    TreeLikelihood(
                        tree.copy(), model, patterns, rates=rates,
                        matrix_cache=incremental,
                    ),
                    12,
                    seed=3,
                    device=spec,
                    incremental=incremental,
                )
                out[f"{tname}/{sname}/mcmc/{incremental}"] = [
                    result.device_seconds,
                    result.kernel_launches,
                ]
    return out


SECTIONS = {
    "time_plan": _time_plan,
    "time_plan_resilient": _resilient,
    "time_pool": _pool,
    "degraded_fleet_curve": _fleet,
    "time_coalesced": _coalesced,
    "time_sharded": _sharded,
    "time_gradient": _gradient,
    "device_timing": _partitioned,
    "modelled_seconds": _evaluators,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_every_modelled_number_matches_the_table(section, golden):
    # A JSON round trip turns tuples into lists; floats survive exactly.
    computed = json.loads(json.dumps(SECTIONS[section]()))
    expected = golden[section]
    assert computed.keys() == expected.keys()
    for key in expected:
        assert computed[key] == expected[key], key


def test_table_covers_every_section(golden):
    assert sorted(golden) == sorted(SECTIONS)
