"""Resilient execution: fault injection, recovery policies, checkpoints,
and the supervised likelihood pool.

The paper's speedups only matter if long runs finish. This subpackage
adds the dynamic-robustness layer around the likelihood engine:

* :mod:`repro.exec.errors` — the typed failure hierarchy
  (:class:`ExecutionError` → :class:`DeviceFault` /
  :class:`AllocationError` / :class:`NumericalError` /
  :class:`DeadlineExceeded` / :class:`PoolSaturatedError` /
  :class:`NoHealthyWorkersError` / :class:`DataRaceError`).
* :mod:`repro.exec.faults` — one seeded :class:`FaultSpec` /
  :class:`FaultSchedule` fault stream, drawn per kernel launch (five
  classes: kernel-launch failure, transient device error, allocation
  failure, NaN poisoning, silent underflow) or per ``(shard, attempt)``
  (three shard classes); the :class:`FaultInjector` over the engine's
  launch surface, plus the silently-corrupting :class:`BiasInjector`.
* :mod:`repro.exec.ledger` — the closed-identity :class:`Ledger` base
  every accounting surface (fault, pool, shard and serve ledgers)
  subclasses: identities declared once as data, then checked,
  explained, merged and exported by one implementation.
* :mod:`repro.exec.resilient` — :class:`ResilientInstance`, the
  retry/degrade/rescale facade, with :class:`RetryPolicy` and
  :class:`FaultStats`.
* :mod:`repro.exec.health` — :class:`Deadline` budgets,
  :class:`CircuitBreaker` state machines, and the known-answer
  :class:`Sentinel` health probe.
* :mod:`repro.exec.supervisor` — :class:`PoolWorker` engine slots and
  the :class:`Supervisor` that probes and evicts them.
* :mod:`repro.exec.pool` — :class:`LikelihoodPool`, dispatching
  independent jobs (bootstrap replicates, partitions, candidate trees)
  across supervised workers with deadlines, failover, and a balanced
  fault ledger.
* :mod:`repro.exec.checkpoint` — :class:`MCMCCheckpoint`, bit-identical
  checkpoint/resume for :func:`repro.inference.mcmc.run_mcmc`.
"""

from .checkpoint import CheckpointError, MCMCCheckpoint, ShardCheckpoint
from .errors import (
    AllocationError,
    DataRaceError,
    DeadlineExceeded,
    DeviceFault,
    ExecutionError,
    KernelLaunchError,
    NoHealthyWorkersError,
    NumericalError,
    PoolSaturatedError,
    TransientDeviceError,
)
from .faults import (
    FAULT_CLASSES,
    SHARD_FAULT_CLASSES,
    BiasInjector,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
)
from .health import CircuitBreaker, Deadline, DeadlineGuard, Sentinel
from .ledger import Identity, Ledger
from .pool import JobContext, JobOutcome, LikelihoodPool, PoolStats
from .resilient import FaultStats, ResilientInstance, RetryPolicy
from .sharding import (
    MIN_SHARD_WIDTH,
    Shard,
    ShardAborted,
    ShardedLikelihood,
    ShardFailure,
    ShardLedger,
    deterministic_sum,
    plan_shards,
)
from .supervisor import PoolWorker, Supervisor

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
    "FAULT_CLASSES",
    "FaultSpec",
    "FaultSchedule",
    "FaultInjector",
    "BiasInjector",
    "RetryPolicy",
    "Identity",
    "Ledger",
    "FaultStats",
    "ResilientInstance",
    "Deadline",
    "DeadlineGuard",
    "CircuitBreaker",
    "Sentinel",
    "PoolWorker",
    "Supervisor",
    "JobContext",
    "JobOutcome",
    "PoolStats",
    "LikelihoodPool",
    "CheckpointError",
    "MCMCCheckpoint",
    "ShardCheckpoint",
    "SHARD_FAULT_CLASSES",
    "MIN_SHARD_WIDTH",
    "Shard",
    "ShardLedger",
    "ShardAborted",
    "ShardFailure",
    "ShardedLikelihood",
    "deterministic_sum",
    "plan_shards",
]
