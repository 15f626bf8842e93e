"""Analytical kernel-timing model: one function prices every launch.

The model captures the three effects that determine the paper's results
— and nothing more:

1. **Kernel-launch overhead.** Every operation set costs a fixed
   ``launch_overhead_s``. Serial evaluation pays it ``n − 1`` times;
   concurrent evaluation once per set. This is the term rerooting
   attacks.
2. **Wave-quantised execution.** A launch with ``k`` operations runs
   ``k · categories · patterns · states`` fine-grained threads. The device
   executes ``concurrent_threads`` of them per wave; a launch takes
   ``ceil(threads / concurrent_threads)`` waves of ``wave_time_s`` each.
   Undersaturated launches (the paper's regime: 512 patterns × 4 states =
   2,048 threads on a 7,168-thread device) take one wave regardless of
   size — which is precisely why batching independent operations is free
   until saturation, and why gains flatten for very large sets (paper
   §VII-D's observation that device saturation hits balanced trees
   hardest).
3. **Per-operation scheduling cost** inside a multi-operation launch
   (pointer arithmetic, block setup — §VI-A), which is why realised
   speedups stay below the theoretical ``(n−1)/sets`` bound.

Time of one multi-operation launch with ``k`` operations::

    t(k) = launch_overhead + k · per_op_overhead
           + wave_time · ceil(threads / concurrent_threads)

A launch may fuse operations of different shapes — partitions with
different pattern, state or category counts (paper §IV-A), or requests
of different widths coalesced into one launch (BEAGLE 4.1's
multi-client picture). Only the totals matter: the thread count sets the
wave count, the operation count sets the scheduling overhead.

**CUDA streams** (paper §IV-B alternative, reference [2]): each
operation is launched separately, but launches into ``S`` streams
overlap on the device. The host issues the ``k`` asynchronous launches
serially, each ``ASYNC_ISSUE_FRACTION`` of a synchronous launch; the
device runs at least one wave per ``ceil(k / S)`` round; issue and
execution overlap, and the set ends with one synchronisation::

    t(k) = max(k · launch_overhead · ASYNC_ISSUE_FRACTION,
               wave_time · max(ceil(k / S), ceil(threads / concurrent_threads)))
           + launch_overhead

For this domain's small kernels the host is the bottleneck, which is why
reference [2] found the multi-operation kernel superior.

Throughput is reported as effective GFLOPS over the whole evaluation,
using the same FLOP accounting as the real kernels
(:func:`repro.beagle.kernels.operation_flops`) — the paper's §VI-C metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from ..beagle.kernels import operation_flops
from .device import DeviceSpec

__all__ = [
    "ASYNC_ISSUE_FRACTION",
    "WorkloadDims",
    "LaunchTiming",
    "EvaluationTiming",
    "price_launches",
    "time_set_sizes",
]

#: Relative cost of issuing an asynchronous (stream) launch compared to a
#: synchronous kernel launch.
ASYNC_ISSUE_FRACTION = 0.75


@dataclass(frozen=True)
class WorkloadDims:
    """Problem dimensions of one likelihood evaluation."""

    patterns: int
    states: int = 4
    categories: int = 1

    def __post_init__(self) -> None:
        if min(self.patterns, self.states, self.categories) < 1:
            raise ValueError("workload dimensions must be positive")

    @classmethod
    def of(cls, patterns: int, model, rates=None) -> "WorkloadDims":
        """Dimensions of ``patterns`` site patterns under a substitution
        model and optional rate categories (one category when ``None``)."""
        return cls(patterns, model.n_states, rates.n_categories if rates else 1)

    @property
    def threads_per_operation(self) -> int:
        """Fine-grained threads per operation: one per grid element."""
        return self.patterns * self.states * self.categories

    @property
    def flops_per_operation(self) -> int:
        """Floating-point operations one partials operation costs."""
        return operation_flops(self.patterns, self.states, self.categories)


@dataclass(frozen=True)
class LaunchTiming:
    """Breakdown of one simulated kernel launch (or stream round)."""

    n_operations: int
    n_waves: int
    seconds: float
    flops: int
    occupancy: float


def _fold(values: Iterable[float]) -> float:
    """Left-to-right float sum, bit-identical on every Python version
    (``sum`` compensates rounding from CPython 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class EvaluationTiming:
    """Timing of a full tree evaluation (a sequence of launches)."""

    launches: List[LaunchTiming]

    @property
    def n_launches(self) -> int:
        """Kernel launches in the evaluation."""
        return len(self.launches)

    @property
    def n_operations(self) -> int:
        """Operations summed over all launches."""
        return sum(l.n_operations for l in self.launches)

    @property
    def seconds(self) -> float:
        """Modelled seconds summed over all launches."""
        return _fold(l.seconds for l in self.launches)

    @property
    def flops(self) -> int:
        """Floating-point operations summed over all launches."""
        return sum(l.flops for l in self.launches)

    @property
    def gflops(self) -> float:
        """Effective throughput of the partials kernel (paper §VI-C)."""
        if self.seconds <= 0:
            return 0.0
        return self.flops / self.seconds / 1e9

    @property
    def mean_occupancy(self) -> float:
        """Time-weighted achieved occupancy over the evaluation.

        The paper's §I frames the whole optimisation as raising *achieved*
        occupancy toward the theoretical limit: serial schedules leave the
        device mostly idle, rerooting fills it. 1.0 means every wave of
        every launch ran with a full complement of threads.
        """
        if self.seconds <= 0:
            return 0.0
        weighted = _fold(l.occupancy * l.seconds for l in self.launches)
        return weighted / self.seconds


def price_launches(
    spec: DeviceSpec,
    launches: Iterable[Sequence[Tuple[int, WorkloadDims]]],
    n_streams: int = 0,
) -> EvaluationTiming:
    """Modelled timing of a sequence of launches on ``spec``.

    Each launch is a list of ``(operations, dims)`` groups run together,
    so a fused launch mixing widths — partitions, coalesced requests —
    is an ordinary input. ``n_streams`` selects the mechanism: ``0`` is
    the paper's multi-operation kernel, ``S > 0`` issues every operation
    of a launch through ``S`` CUDA streams. Stream rounds report zero
    occupancy.
    """
    if n_streams < 0:
        raise ValueError("n_streams must be non-negative")
    priced: List[LaunchTiming] = []
    for groups in launches:
        n_ops = threads = flops = 0
        for k, dims in groups:
            if k < 1:
                raise ValueError("a launch group needs at least one operation")
            n_ops += k
            threads += k * dims.threads_per_operation
            flops += k * dims.flops_per_operation
        if n_ops < 1:
            raise ValueError("a launch needs at least one operation")
        waves = math.ceil(threads / spec.concurrent_threads)
        if n_streams:
            waves = max(math.ceil(n_ops / n_streams), waves)
            host = n_ops * spec.launch_overhead_s * ASYNC_ISSUE_FRACTION
            seconds = max(host, waves * spec.wave_time_s) + spec.launch_overhead_s
            occupancy = 0.0
        else:
            seconds = (
                spec.launch_overhead_s
                + n_ops * spec.per_op_overhead_s
                + waves * spec.wave_time_s
            )
            # Fraction of the device's thread slots used over the waves.
            occupancy = threads / (waves * spec.concurrent_threads)
        priced.append(LaunchTiming(n_ops, waves, seconds, flops, occupancy))
    return EvaluationTiming(launches=priced)


def time_set_sizes(
    spec: DeviceSpec, dims: WorkloadDims, set_sizes: Sequence[int]
) -> EvaluationTiming:
    """Multi-operation-kernel timing of one launch per set size."""
    return price_launches(spec, [[(k, dims)] for k in set_sizes])
