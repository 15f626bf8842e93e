"""Simulated device execution of tree-evaluation plans.

:class:`SimulatedDevice` plays the role of the GP100 in the paper's
benchmarks: given an :class:`~repro.core.planner.ExecutionPlan` (or just a
tree) and the workload dimensions, it produces launch-by-launch timings,
total time, and effective GFLOPS. It can optionally drive a real
:class:`~repro.beagle.instance.BeagleInstance` alongside the model so
every simulated number corresponds to an actually computed likelihood.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import zip_longest
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.faults import FaultSchedule, FaultSpec
    from ..exec.resilient import FaultStats, RetryPolicy

from ..core.planner import ExecutionPlan, GradientPlan, make_plan
from ..obs import get_recorder
from ..obs.profile import PHASE_MODELLED
from ..trees import Tree
from .device import GP100, DeviceSpec
from .perfmodel import (
    EvaluationTiming,
    LaunchTiming,
    WorkloadDims,
    _fold,
    price_launches,
    time_set_sizes,
)

__all__ = [
    "SimulatedDevice",
    "CoalesceTiming",
    "GradientTiming",
    "PoolTiming",
    "ShardTiming",
    "simulate_tree",
    "simulated_speedup",
]


@dataclass(frozen=True)
class PoolTiming:
    """Modelled execution of a job batch on a multi-worker pool.

    Attributes
    ----------
    seconds:
        Makespan — the time the last busy worker finishes.
    completed / surfaced / rerouted:
        Job accounting under the modelled fault streams.
    evicted:
        Workers removed after ``failure_threshold`` consecutive failed
        jobs.
    busy_seconds / jobs_per_worker:
        Per-worker load, index-aligned with the pool's workers.
    stats:
        Modelled :class:`~repro.exec.resilient.FaultStats` (detection is
        perfect in the model).
    """

    seconds: float
    n_jobs: int
    n_workers: int
    completed: int
    surfaced: int
    rerouted: int
    evicted: Tuple[int, ...]
    busy_seconds: Tuple[float, ...]
    jobs_per_worker: Tuple[int, ...]
    stats: "FaultStats"

    @property
    def throughput(self) -> float:
        """Completed jobs per modelled second."""
        return self.completed / self.seconds if self.seconds > 0.0 else 0.0


@dataclass(frozen=True)
class CoalesceTiming:
    """Modelled cross-request coalescing economics of one batch.

    Attributes
    ----------
    coalesced_seconds:
        Device time of the lockstep schedule: round ``r`` fuses every
        member's ``r``-th operation set into one launch of their summed
        sizes, so the per-launch fixed cost is paid once per round
        instead of once per member set.
    solo_seconds:
        The same members served one at a time on the same device (the
        uncoalesced baseline).
    coalesced_launches / solo_launches:
        Launch counts of the two schedules.
    width:
        Members in the batch.
    wasted_seconds:
        Device time the coalesced schedule spends on padded lanes —
        nonzero only when the caller passes per-member true pattern
        counts (the serve assembler's ``pad`` mode). It is the padded
        launch cost minus what a width-aware fused launch of the same
        operations at their true widths would cost, summed over rounds.
        Zero while launches stay under device saturation (padding rides
        in the same waves for free), growing once padded lanes force
        extra waves — exactly the regime where ``split`` wins.

    Per-request latency under coalescing is ``coalesced_seconds`` for
    *every* member — nobody's value is ready before the batch finishes —
    while the solo baseline's k-th member waits the cumulative time of
    the members before it. That is the p99-versus-throughput trade the
    serving bench reports.
    """

    coalesced_seconds: float
    solo_seconds: float
    coalesced_launches: int
    solo_launches: int
    width: int
    wasted_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        """Solo seconds over coalesced seconds (aggregate throughput gain).

        When true member widths were priced, the solo baseline ran each
        member at its *own* pattern count, so padding waste no longer
        cancels out of this ratio — ``pad`` has to beat an honest
        unpadded baseline.
        """
        if self.coalesced_seconds <= 0.0:
            return float("inf") if self.solo_seconds > 0.0 else 1.0
        return self.solo_seconds / self.coalesced_seconds

    @property
    def launches_saved(self) -> int:
        """Kernel launches the lockstep schedule avoids."""
        return self.solo_launches - self.coalesced_launches

    @property
    def wasted_fraction(self) -> float:
        """Share of coalesced device time spent on padded lanes."""
        if self.coalesced_seconds <= 0.0:
            return 0.0
        return self.wasted_seconds / self.coalesced_seconds


@dataclass(frozen=True)
class GradientTiming:
    """Modelled one-sweep all-branch gradient vs per-edge rerooting.

    Attributes
    ----------
    one_sweep:
        Timing of the gradient plan — the post-order traversal followed
        by the pre-order upper-partial sets (``3n − 5`` operations
        total).
    per_edge:
        Timing of the baseline that reroots above every canonical edge
        and runs a full post-order traversal per reroot (``(2n − 3) ×
        (n − 1)`` operations) — what per-edge
        :func:`~repro.inference.derivatives.edge_log_likelihood_derivatives`
        calls cost.
    n_edges:
        Canonical edges the gradient covers (``2n − 3``).
    """

    one_sweep: EvaluationTiming
    per_edge: EvaluationTiming
    n_edges: int

    @property
    def speedup(self) -> float:
        """Per-edge-reroot seconds over one-sweep seconds.

        The headline quantity of the gradient bench: linear work against
        quadratic work, so the ratio grows roughly linearly in the taxon
        count.
        """
        if self.one_sweep.seconds <= 0.0:
            return float("inf") if self.per_edge.seconds > 0.0 else 1.0
        return self.per_edge.seconds / self.one_sweep.seconds

    @property
    def launches_saved(self) -> int:
        """Kernel launches the one-sweep schedule avoids."""
        return self.per_edge.n_launches - self.one_sweep.n_launches

    @property
    def operations_saved(self) -> int:
        """Partial-update operations the one-sweep schedule avoids."""
        return self.per_edge.n_operations - self.one_sweep.n_operations


@dataclass(frozen=True)
class ShardTiming:
    """Modelled execution of one sharded likelihood evaluation.

    Attributes
    ----------
    seconds:
        Makespan — when the slowest worker finishes its shards (the
        reduction itself is host-side and modelled as free).
    unsharded_seconds:
        The same evaluation as one full-width instance, for overhead /
        speedup accounting.
    shard_seconds:
        Per-shard device time, in shard order.
    shard_widths:
        Pattern count of each shard, as the caller cut them.
    busy_seconds:
        Per-worker load under round-robin shard placement.
    """

    seconds: float
    unsharded_seconds: float
    shard_seconds: Tuple[float, ...]
    shard_widths: Tuple[int, ...]
    busy_seconds: Tuple[float, ...]

    @property
    def n_shards(self) -> int:
        """Number of shards in the modelled evaluation."""
        return len(self.shard_seconds)

    @property
    def speedup(self) -> float:
        """Unsharded seconds over sharded makespan."""
        return self.unsharded_seconds / self.seconds if self.seconds else 0.0

    @property
    def total_seconds(self) -> float:
        """Device-seconds summed over every shard."""
        return _fold(self.shard_seconds)

    @property
    def overhead(self) -> float:
        """Total sharded device-seconds over unsharded seconds, minus 1.

        The per-launch fixed cost is paid once per shard instead of
        once, so total device work grows with the shard count even
        though the makespan shrinks — this is the fault-free sharding
        overhead the benchmark gates below 5 % for sane shard widths.
        """
        if not self.unsharded_seconds:
            return 0.0
        return self.total_seconds / self.unsharded_seconds - 1.0


class SimulatedDevice:
    """A device executing plans under the analytical timing model."""

    def __init__(self, spec: DeviceSpec = GP100) -> None:
        self.spec = spec

    def time_plan(self, plan: ExecutionPlan, dims: WorkloadDims) -> EvaluationTiming:
        """Simulated timing of one plan execution.

        Modelled device seconds are credited to the profiler's
        :data:`~repro.obs.profile.PHASE_MODELLED` phase, so simulated
        runs fill the same profile table as measured ones.
        """
        timing = time_set_sizes(self.spec, dims, plan.set_sizes)
        obs = get_recorder()
        if obs.enabled:
            obs.add_phase_seconds(
                PHASE_MODELLED, timing.seconds, calls=timing.n_launches
            )
        return timing

    def time_plan_resilient(
        self,
        plan: ExecutionPlan,
        dims: WorkloadDims,
        faults: Union["FaultSpec", "FaultSchedule"],
        policy: Optional["RetryPolicy"] = None,
        *,
        n_streams: int = 0,
    ) -> Tuple[EvaluationTiming, "FaultStats"]:
        """Simulated timing of one plan under faults and recovery.

        Replays the same seeded :class:`~repro.exec.faults.FaultSchedule`
        the engine-side :class:`~repro.exec.faults.FaultInjector` would
        consume — attempt ``i`` of the model faults exactly when attempt
        ``i`` of a real run would — and charges every attempt (including
        ones that fault) a full launch under the analytical model, the
        pessimistic assumption that a fault is discovered only at launch
        completion. Batched sets that exhaust their retry budget degrade
        to per-operation launches when the policy allows, so the returned
        timing quantifies what resilience costs in device time.

        ``n_streams`` selects the launch mechanism as in
        :func:`~repro.gpu.perfmodel.price_launches`: ``0`` is the paper's
        multi-operation kernel; ``S > 0`` issues each set through ``S``
        streams (a faulting attempt re-pays the whole stream round, which
        is why the streams ablation degrades faster under faults).

        Returns the timing plus the modelled
        :class:`~repro.exec.resilient.FaultStats` (detection is perfect
        in the model: every injected fault is detected).
        """
        from ..exec.faults import FaultSchedule, FaultSpec
        from ..exec.resilient import FaultStats, RetryPolicy

        schedule = FaultSchedule(faults) if isinstance(faults, FaultSpec) else faults
        policy = policy or RetryPolicy()
        stats = FaultStats(schedules=(schedule,))
        launches: List[LaunchTiming] = []
        self._model_plan(plan, dims, schedule, policy, stats, launches, n_streams)
        return EvaluationTiming(launches=launches), stats

    def _model_plan(
        self,
        plan: ExecutionPlan,
        dims: WorkloadDims,
        schedule: "FaultSchedule",
        policy: "RetryPolicy",
        stats: "FaultStats",
        launches: List[LaunchTiming],
        n_streams: int,
    ) -> bool:
        """Model one plan evaluation; returns False if any set errored."""
        # Every attempt of set i costs prices[i]; a degraded per-operation
        # launch costs prices[-1].
        sizes = plan.set_sizes
        prices = price_launches(
            self.spec, [[(k, dims)] for k in sizes + [1]], n_streams
        ).launches

        def run_launch(price: LaunchTiming, batched: bool) -> bool:
            failures = 0
            underflows = 0
            while True:
                launches.append(price)
                fault = schedule.draw(batched=batched)
                if fault is None:
                    return True
                stats.detected += 1
                stats.detected_by_class[fault] = (
                    stats.detected_by_class.get(fault, 0) + 1
                )
                failures += 1
                if fault == "underflow":
                    underflows += 1
                    if underflows > policy.underflow_retries:
                        return False
                if failures > policy.max_retries:
                    return False
                stats.retried += 1

        succeeded = True
        for size, price in zip(sizes, prices):
            if run_launch(price, batched=size > 1):
                continue
            if policy.degrade and size > 1:
                stats.degraded += 1
                if not all(
                    run_launch(prices[-1], batched=False) for _ in range(size)
                ):
                    stats.errors += 1
                    succeeded = False
            else:
                stats.errors += 1
                succeeded = False
        return succeeded

    # ------------------------------------------------------------------
    # Pool-level models (paper-style throughput of a degraded fleet)
    # ------------------------------------------------------------------
    def time_pool(
        self,
        plan: ExecutionPlan,
        dims: WorkloadDims,
        n_jobs: int,
        n_workers: int,
        *,
        worker_fault_specs: Optional[Sequence[Optional["FaultSpec"]]] = None,
        policy: Optional["RetryPolicy"] = None,
        failure_threshold: int = 3,
        n_streams: int = 0,
    ) -> PoolTiming:
        """List-scheduled timing of ``n_jobs`` identical evaluations on a
        pool of ``n_workers`` modelled devices.

        Mirrors :class:`~repro.exec.pool.LikelihoodPool` semantics in the
        analytical model: each job goes to the earliest-available worker
        that has not already failed it; each worker consumes its own
        persistent seeded :class:`~repro.exec.faults.FaultSchedule`; a
        job whose recovery pipeline is exhausted fails the worker and
        reroutes; ``failure_threshold`` consecutive failed jobs evict the
        worker (the model folds the breaker's open → half-open → evicted
        path into one step, since a modelled fault stream that exhausts
        retries would also fail the probe). Attempt-level faulting and
        recovery costs replay :meth:`time_plan_resilient` exactly.
        """
        from ..exec.faults import FaultSchedule
        from ..exec.resilient import FaultStats, RetryPolicy

        if n_jobs < 0:
            raise ValueError("n_jobs must be non-negative")
        if n_workers < 1:
            raise ValueError("need at least one worker")
        specs: List[Optional["FaultSpec"]] = list(worker_fault_specs or [])
        if len(specs) > n_workers:
            raise ValueError(f"{len(specs)} fault specs for {n_workers} workers")
        specs += [None] * (n_workers - len(specs))
        policy = policy or RetryPolicy()
        schedules = [
            FaultSchedule(spec) if spec is not None and spec.rate > 0.0 else None
            for spec in specs
        ]
        stats = FaultStats(schedules=tuple(s for s in schedules if s is not None))
        available = [0.0] * n_workers
        busy = [0.0] * n_workers
        jobs_done = [0] * n_workers
        consecutive = [0] * n_workers
        alive = [True] * n_workers
        evicted: List[int] = []
        tried: Dict[int, Set[int]] = {j: set() for j in range(n_jobs)}
        completed = 0
        surfaced = 0
        rerouted = 0

        queue = deque(range(n_jobs))
        clean_seconds: Optional[float] = None
        while queue:
            job = queue.popleft()
            candidates = [
                i for i in range(n_workers) if alive[i] and i not in tried[job]
            ]
            if not candidates:
                surfaced += 1
                stats.surfaced += 1
                continue
            worker = min(candidates, key=lambda i: (available[i], i))
            schedule = schedules[worker]
            if schedule is None:
                # Healthy worker: every job costs the clean plan time,
                # priced under the same mechanism the faulty ones replay.
                if clean_seconds is None:
                    clean_seconds = price_launches(
                        self.spec, [[(k, dims)] for k in plan.set_sizes], n_streams
                    ).seconds
                elapsed, ok = clean_seconds, True
            else:
                launches: List[LaunchTiming] = []
                ok = self._model_plan(
                    plan, dims, schedule, policy, stats, launches, n_streams
                )
                elapsed = EvaluationTiming(launches).seconds
            available[worker] += elapsed
            busy[worker] += elapsed
            if ok:
                jobs_done[worker] += 1
                consecutive[worker] = 0
                completed += 1
                continue
            consecutive[worker] += 1
            tried[job].add(worker)
            if consecutive[worker] >= failure_threshold:
                alive[worker] = False
                evicted.append(worker)
            if any(alive[i] and i not in tried[job] for i in range(n_workers)):
                rerouted += 1
                stats.rerouted += 1
                queue.append(job)
            else:
                surfaced += 1
                stats.surfaced += 1

        return PoolTiming(
            seconds=max(busy) if any(busy) else 0.0,
            n_jobs=n_jobs,
            n_workers=n_workers,
            completed=completed,
            surfaced=surfaced,
            rerouted=rerouted,
            evicted=tuple(evicted),
            busy_seconds=tuple(busy),
            jobs_per_worker=tuple(jobs_done),
            stats=stats,
        )

    def degraded_fleet_curve(
        self,
        plan: ExecutionPlan,
        dims: WorkloadDims,
        n_jobs: int,
        n_workers: int,
        *,
        n_streams: int = 0,
    ) -> List[Tuple[int, float]]:
        """Throughput (jobs/s) of a clean pool as workers are evicted.

        Returns ``(evicted_count, throughput)`` for 0 … ``n_workers − 1``
        evictions. With identical jobs, list scheduling gives makespan
        ``ceil(n_jobs / survivors) · job_seconds``, so the curve is
        monotone non-increasing by construction — the reference shape the
        real pool's degradation benchmark is compared against.
        """
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if n_jobs < 1:
            raise ValueError("need at least one job")
        job_seconds = price_launches(
            self.spec, [[(k, dims)] for k in plan.set_sizes], n_streams
        ).seconds
        curve: List[Tuple[int, float]] = []
        for evicted_count in range(n_workers):
            survivors = n_workers - evicted_count
            makespan = math.ceil(n_jobs / survivors) * job_seconds
            curve.append((evicted_count, n_jobs / makespan))
        return curve

    # ------------------------------------------------------------------
    # Cross-request coalescing (likelihood-as-a-service batches)
    # ------------------------------------------------------------------
    def time_coalesced(
        self,
        member_set_sizes: Sequence[Sequence[int]],
        dims: WorkloadDims,
        *,
        n_streams: int = 0,
        member_patterns: Optional[Sequence[int]] = None,
    ) -> CoalesceTiming:
        """Modelled timing of one coalesced cross-request batch.

        ``member_set_sizes`` holds each member's plan set sizes (the
        shape :class:`~repro.serve.coalesce.CoalescedBatch` exposes).
        The coalesced schedule runs members in lockstep — round ``r``
        fuses every member's ``r``-th set into one launch, the BEAGLE 4.1
        multi-client picture — while the solo baseline launches every
        member's every set separately. All members share ``dims``: the
        assembler only coalesces requests whose dimensions agree.

        For the assembler's ``"pad"`` mode pass the bucket's padded
        pattern count as ``dims.patterns`` *and* each member's true
        pattern count in ``member_patterns``. The coalesced schedule
        then runs at the padded width (every lane is padded), but the
        solo baseline runs each member at its own true width — a solo
        request never pads — and ``wasted_seconds`` reports the padded
        lanes' device-time cost, so ``pad`` vs ``split`` is an honest
        trade-off instead of padding waste cancelling out of the
        speedup. True-width pricing needs the additive launch model, so
        ``member_patterns`` requires the multi-operation kernel
        (``n_streams=0``).
        """
        members = [list(sizes) for sizes in member_set_sizes]
        if not members or any(not sizes for sizes in members):
            raise ValueError("every member needs a non-empty set-size list")
        member_dims = [dims] * len(members)
        if member_patterns is not None:
            if n_streams:
                raise ValueError(
                    "member_patterns pricing requires the multi-operation "
                    "kernel (n_streams=0)"
                )
            if len(member_patterns) != len(members):
                raise ValueError(
                    "member_patterns must give one pattern count per member"
                )
            member_dims = [
                WorkloadDims(patterns, dims.states, dims.categories)
                for patterns in member_patterns
            ]
            if any(d.patterns > dims.patterns for d in member_dims):
                raise ValueError(
                    "a member's true pattern count exceeds the padded width"
                )
        rounds = [
            [(i, k) for i, k in enumerate(sizes) if k is not None]
            for sizes in zip_longest(*members)
        ]
        coalesced = price_launches(
            self.spec, [[(k, dims) for _, k in ops] for ops in rounds], n_streams
        )
        solo = price_launches(
            self.spec,
            [[(k, member_dims[i])] for i, sizes in enumerate(members) for k in sizes],
            n_streams,
        )
        wasted = 0.0
        if member_patterns is not None:
            # Padded launch cost minus the same fused launch at the
            # members' true widths: the padded lanes' device time.
            ideal = price_launches(
                self.spec, [[(k, member_dims[i]) for i, k in ops] for ops in rounds]
            )
            for padded, true in zip(coalesced.launches, ideal.launches):
                wasted += padded.seconds - true.seconds
        return CoalesceTiming(
            coalesced_seconds=coalesced.seconds,
            solo_seconds=solo.seconds,
            coalesced_launches=coalesced.n_launches,
            solo_launches=solo.n_launches,
            width=len(members),
            wasted_seconds=wasted,
        )

    # ------------------------------------------------------------------
    # Data-parallel site sharding
    # ------------------------------------------------------------------
    def time_sharded(
        self,
        plan: ExecutionPlan,
        dims: WorkloadDims,
        shard_widths: Sequence[int],
        *,
        n_workers: int = 1,
    ) -> ShardTiming:
        """Modelled timing of one evaluation sharded along the pattern axis.

        ``shard_widths`` are the shards' pattern counts as the caller cut
        them — :func:`repro.exec.sharding.plan_shards` even cuts for a
        what-if study, or the weight-balanced cuts a
        :class:`~repro.exec.sharding.ShardedLikelihood` evaluates.
        ``dims.patterns`` is the unsharded width. Each shard runs the
        *same* plan — the tree does not change, only the pattern count
        per launch — and shards are placed round-robin on ``n_workers``
        modelled devices. The deterministic host-side reduction is
        modelled as free: its cost is ``O(n_patterns)`` additions against
        ``O(patterns × states² × tips)`` device work.
        """
        if n_workers < 1:
            raise ValueError("need at least one worker")
        shard_seconds = [
            time_set_sizes(
                self.spec,
                WorkloadDims(width, dims.states, dims.categories),
                plan.set_sizes,
            ).seconds
            for width in shard_widths
        ]
        busy = [0.0] * n_workers
        for index, seconds in enumerate(shard_seconds):
            busy[index % n_workers] += seconds
        return ShardTiming(
            seconds=max(busy),
            unsharded_seconds=time_set_sizes(
                self.spec, dims, plan.set_sizes
            ).seconds,
            shard_seconds=tuple(shard_seconds),
            shard_widths=tuple(shard_widths),
            busy_seconds=tuple(busy),
        )

    def time_tree(
        self, tree: Tree, dims: WorkloadDims, mode: str = "concurrent"
    ) -> EvaluationTiming:
        """Simulated timing of a tree under a scheduling mode."""
        return self.time_plan(make_plan(tree, mode), dims)

    def speedup(self, tree: Tree, dims: WorkloadDims, mode: str = "concurrent") -> float:
        """Simulated concurrent-over-serial speedup for one tree.

        This is the quantity the paper's Table III reports in the
        "NVIDIA GP100" column (there measured, here modelled).
        """
        serial = self.time_tree(tree, dims, "serial").seconds
        concurrent = self.time_tree(tree, dims, mode).seconds
        return serial / concurrent

    def time_gradient(
        self,
        tree: Tree,
        dims: WorkloadDims,
        mode: str = "concurrent",
        *,
        plan: Optional[GradientPlan] = None,
    ) -> GradientTiming:
        """Modelled all-branch derivative economics for one tree.

        Times the one-sweep gradient plan (post-order traversal plus
        pre-order upper-partial sets, ``3n − 5`` operations) against the
        per-edge baseline that reroots above every canonical edge and
        pays a full post-order traversal each time — the exact schedule
        per-edge :func:`~repro.inference.derivatives.
        edge_log_likelihood_derivatives` calls execute, built with
        :func:`~repro.trees.reroot.reroot_above` per edge so the
        baseline's set structure is real, not assumed. Both schedules
        are timed under the same ``dims`` and ``mode``; modelled seconds
        of the one-sweep schedule are credited to
        :data:`~repro.obs.profile.PHASE_MODELLED`.
        """
        from ..core.planner import make_gradient_plan
        from ..inference.derivatives import canonical_edges
        from ..trees.reroot import reroot_above

        gplan = plan if plan is not None else make_gradient_plan(tree, mode)
        sweep_sizes = list(gplan.post.set_sizes) + list(gplan.upper_set_sizes)
        one_sweep = time_set_sizes(self.spec, dims, sweep_sizes)
        edge_sizes: List[int] = []
        edges = canonical_edges(gplan.tree)
        for edge in edges:
            rerooted = reroot_above(gplan.tree, edge, fraction=0.0)
            edge_sizes += make_plan(rerooted, mode, scaling=False).set_sizes
        per_edge = time_set_sizes(self.spec, dims, edge_sizes)
        obs = get_recorder()
        if obs.enabled:
            obs.add_phase_seconds(
                PHASE_MODELLED, one_sweep.seconds, calls=one_sweep.n_launches
            )
        return GradientTiming(
            one_sweep=one_sweep, per_edge=per_edge, n_edges=len(edges)
        )


def simulate_tree(
    tree: Tree,
    patterns: int = 512,
    states: int = 4,
    categories: int = 1,
    spec: DeviceSpec = GP100,
    mode: str = "concurrent",
) -> EvaluationTiming:
    """One-call convenience: simulated timing of a tree evaluation."""
    dims = WorkloadDims(patterns=patterns, states=states, categories=categories)
    return SimulatedDevice(spec).time_tree(tree, dims, mode)


def simulated_speedup(
    tree: Tree,
    patterns: int = 512,
    states: int = 4,
    categories: int = 1,
    spec: DeviceSpec = GP100,
) -> float:
    """Concurrent-over-serial simulated speedup (Table III style)."""
    dims = WorkloadDims(patterns=patterns, states=states, categories=categories)
    return SimulatedDevice(spec).speedup(tree, dims)
