"""Typed execution errors for the resilient engine.

The hierarchy mirrors the failure classes a BEAGLE-backed run actually
hits on real devices (kernel launches that never start, transient device
errors mid-run, allocation failures under memory pressure, and numerical
corruption of a partials buffer), so callers can write targeted recovery
policies instead of matching on exception messages:

``ExecutionError``
    Root of the hierarchy (a ``RuntimeError``); catching it covers every
    fault the engine can surface.
``DeviceFault``
    The device-side failures — :class:`KernelLaunchError` (the launch
    never started; always safe to retry) and
    :class:`TransientDeviceError` (the device errored during execution;
    destination buffers are recomputed wholesale on retry, so retrying is
    safe here too).
``AllocationError``
    Device memory exhaustion. Retrying can succeed once pressure clears;
    degrading a batched launch to per-operation launches shrinks the
    working set.
``NumericalError``
    A partials buffer holds NaN/Inf (``kind="nan"``) or has underflowed
    to (near) zero (``kind="underflow"``). NaN/Inf poisoning is cured by
    recomputation; genuine underflow is deterministic and needs
    rescaling escalation instead.
``DeadlineExceeded``
    A wall-clock budget ran out mid-evaluation. Not retryable: the
    budget is spent, so retrying the same launch cannot help — the job
    either reroutes with a fresh budget or surfaces.
``PoolSaturatedError``
    Admission control: the pool's bounded queue is full and the job was
    rejected rather than buffered without bound (load shedding).
``NoHealthyWorkersError``
    Every worker of a pool has been circuit-broken and evicted; queued
    jobs cannot be placed anywhere.
``DataRaceError``
    Under the pool's sanitizer, a job failed on engine state that a
    concurrent job raced on; the race is in the detector's report.

Every error carries enough context (launch index, operation count,
buffers) for :class:`~repro.exec.resilient.FaultStats` accounting and for
log lines that identify the failing launch.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = [
    "ExecutionError",
    "DeviceFault",
    "KernelLaunchError",
    "TransientDeviceError",
    "AllocationError",
    "NumericalError",
    "DeadlineExceeded",
    "PoolSaturatedError",
    "NoHealthyWorkersError",
    "DataRaceError",
]


class ExecutionError(RuntimeError):
    """Base class of every dynamic execution failure.

    Parameters
    ----------
    message:
        Human-readable description.
    launch_index:
        Ordinal of the kernel launch (attempt) the fault struck, when
        known.
    n_operations:
        Operation count of the affected launch.
    """

    #: Whether retrying the same launch can possibly succeed. Subclasses
    #: override; policies consult this before burning retry budget.
    retryable: bool = True

    def __init__(
        self,
        message: str,
        *,
        launch_index: Optional[int] = None,
        n_operations: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.launch_index = launch_index
        self.n_operations = n_operations

    def context(self) -> str:
        """Short ``key=value`` suffix identifying the failing launch."""
        parts = []
        if self.launch_index is not None:
            parts.append(f"launch={self.launch_index}")
        if self.n_operations is not None:
            parts.append(f"ops={self.n_operations}")
        return " ".join(parts)


class DeviceFault(ExecutionError):
    """A device-side failure of one kernel launch."""


class KernelLaunchError(DeviceFault):
    """The kernel launch failed to start (no state was modified)."""


class TransientDeviceError(DeviceFault):
    """The device errored during execution of a launch."""


class AllocationError(ExecutionError):
    """Device memory allocation failed (OOM)."""


class NumericalError(ExecutionError):
    """A partials buffer holds non-finite or underflowed values.

    Parameters
    ----------
    kind:
        ``"nan"`` — NaN/Inf detected (recomputation cures poisoning);
        ``"underflow"`` — a pattern's partials sank below the detection
        threshold (deterministic for genuine underflow; rescaling is the
        cure).
    buffers:
        Destination buffer indices found corrupted.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "nan",
        buffers: Sequence[int] = (),
        launch_index: Optional[int] = None,
        n_operations: Optional[int] = None,
    ) -> None:
        if kind not in ("nan", "underflow"):
            raise ValueError(f"unknown numerical fault kind {kind!r}")
        super().__init__(
            message, launch_index=launch_index, n_operations=n_operations
        )
        self.kind = kind
        self.buffers: Tuple[int, ...] = tuple(buffers)

    @property
    def retryable(self) -> bool:  # type: ignore[override]
        # NaN poisoning is transient (recomputation clears it); genuine
        # underflow recurs deterministically — but one recomputation is
        # still worthwhile because *injected* underflow also clears.
        return True


class DeadlineExceeded(ExecutionError):
    """A wall-clock budget expired before the evaluation finished.

    Raised cooperatively at launch boundaries by
    :class:`~repro.exec.health.DeadlineGuard` (and at dispatch time by
    the pool when a job's budget expired while it was still queued).

    Parameters
    ----------
    budget_s:
        The budget that was exceeded, in seconds.
    elapsed_s:
        Wall-clock time actually consumed when the guard fired.
    """

    retryable = False

    def __init__(
        self,
        message: str,
        *,
        budget_s: Optional[float] = None,
        elapsed_s: Optional[float] = None,
        launch_index: Optional[int] = None,
        n_operations: Optional[int] = None,
    ) -> None:
        super().__init__(
            message, launch_index=launch_index, n_operations=n_operations
        )
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


class PoolSaturatedError(ExecutionError):
    """The pool's bounded queue rejected a job (admission control).

    Parameters
    ----------
    capacity:
        The queue bound that was hit.
    pending:
        Jobs already queued when the submission was rejected.
    """

    retryable = False

    def __init__(
        self,
        message: str,
        *,
        capacity: Optional[int] = None,
        pending: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.capacity = capacity
        self.pending = pending


class NoHealthyWorkersError(ExecutionError):
    """Every pool worker is circuit-broken; the job cannot be placed."""

    retryable = False


class DataRaceError(ExecutionError):
    """A sanitized job died of engine state corrupted by a detected data
    race (``cause`` is the original exception). Not retryable: the job's
    schedule is at fault, not the worker."""

    retryable = False

    def __init__(self, message: str, *, cause: BaseException) -> None:
        super().__init__(message)
        self.cause = cause
