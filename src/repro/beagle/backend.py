"""The kernel-backend contract: one protocol, many implementations.

BEAGLE gets "fast as the hardware allows" by hiding heterogeneous kernel
implementations behind a resource-discovery API: callers ask for a
resource and receive *some* implementation honouring one numerical
contract. This module is that contract for the NumPy work-alike. A
:class:`KernelBackend` supplies the five operations the engine
(:class:`~repro.beagle.instance.BeagleInstance`) delegates:

* workspace/arena allocation (:meth:`KernelBackend.create_workspace`),
* transition-matrix materialization
  (:meth:`KernelBackend.materialize_matrices`),
* operation-set partials evaluation
  (:meth:`KernelBackend.update_partials_batch`) — every partials launch,
  post-order or pre-order (upper partials), one operation or many,
* rescaling (:meth:`KernelBackend.rescale`) and the root reduction
  (:meth:`KernelBackend.root_reduce`).

Everything else — buffer bookkeeping, validity tracking, scale-bank
accumulation, statistics, observability — stays in the engine and is
identical across backends. The formal contract (shapes, dtypes, the
engine-view attributes a backend may touch, and the parity classes) is
documented in ``docs/BACKENDS.md``.

Backends are **stateless**: all mutable scratch lives in the
:class:`~repro.beagle.workspace.Workspace` owned by the instance, so one
backend object may serve any number of instances concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..models.eigen import EigenDecomposition
    from .instance import BeagleInstance
    from .operations import Operation
    from .workspace import Workspace

__all__ = ["BackendInfo", "KernelBackend", "PARITY_BIT_IDENTICAL", "PARITY_TOLERANCE"]

#: Parity class of backends whose log-likelihoods must equal the
#: recorded engine's bit for bit (same dtype, same inputs; see
#: ``tests/beagle/bank_golden.json``).
PARITY_BIT_IDENTICAL = "bit-identical"

#: Parity class of backends allowed a documented, bounded deviation
#: (``BackendInfo.tolerance``) from the recorded log-likelihood.
PARITY_TOLERANCE = "tolerance"


@dataclass(frozen=True)
class BackendInfo:
    """Descriptor of one registered kernel backend (a "resource").

    Attributes
    ----------
    name:
        Registry key; what ``REPRO_BACKEND`` and ``backend=<name>``
        select.
    description:
        One-line human summary shown by ``python -m
        repro.beagle.resources``.
    kind:
        Hardware class the backend targets (``"cpu"`` today; a real
        device backend would register ``"gpu"``).
    parity:
        :data:`PARITY_BIT_IDENTICAL` or :data:`PARITY_TOLERANCE` — the
        contract class the backend is tested against.
    tolerance:
        Maximum absolute log-likelihood deviation from the recorded
        engine a :data:`PARITY_TOLERANCE` backend may show. Must be
        ``0.0`` for bit-identical backends.
    """

    name: str
    description: str
    kind: str = "cpu"
    parity: str = PARITY_BIT_IDENTICAL
    tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.parity not in (PARITY_BIT_IDENTICAL, PARITY_TOLERANCE):
            raise ValueError(f"unknown parity class {self.parity!r}")
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be non-negative")
        if self.parity == PARITY_BIT_IDENTICAL and self.tolerance != 0.0:
            raise ValueError("bit-identical backends must declare tolerance 0")


@runtime_checkable
class KernelBackend(Protocol):
    """What a kernel implementation must provide to drive the engine.

    Implementations receive the :class:`BeagleInstance` itself for the
    partials paths and may read/write exactly the *engine-view*
    attributes listed in ``docs/BACKENDS.md`` (partials storage, matrix
    storage, tip data, validity flags, scale bank, workspace) — nothing
    else. All array-shape conventions follow the engine: partials are
    ``(C, P, S)``, transition matrices ``(C, S, S)``.
    """

    @property
    def info(self) -> BackendInfo:
        """Static descriptor: name, kind and parity class."""
        ...

    def create_workspace(
        self,
        dtype: np.dtype,
        category_count: int,
        pattern_count: int,
        state_count: int,
    ) -> "Workspace":
        """Allocate the scratch arena batched execution runs through.

        Returned arenas must be :class:`~repro.beagle.workspace.Workspace`
        instances (or subclasses) so serving's cross-instance arena
        adoption (:meth:`BeagleInstance.adopt_workspace`) keeps working
        across backends.
        """
        ...

    def materialize_matrices(
        self, eigen: "EigenDecomposition", scaled_times: np.ndarray
    ) -> np.ndarray:
        """Transition matrices ``P(t)`` for a flat vector of scaled times.

        Returns ``(len(scaled_times), S, S)`` float64 matrices — the
        engine reshapes to ``(k, C, S, S)`` and installs them. Cached
        (:class:`~repro.beagle.workspace.TransitionMatrixCache`) and
        uncached paths both call this, so a backend's matrices are
        cache-composition invariant by construction.
        """
        ...

    def update_partials_batch(
        self, instance: "BeagleInstance", operations: List["Operation"]
    ) -> None:
        """Execute one validated, independent operation set.

        The engine has already checked set independence, non-emptiness
        and that every destination lies in the slot range the launch may
        write (lower buffers for post-order sets, upper buffers for
        pre-order ones). Children may be tips, lower or upper buffers.
        The backend must compute every destination partials buffer,
        apply per-operation rescaling for operations carrying a
        ``destination_scale``, and mark destinations valid — the
        semantics of one BEAGLE multi-operation kernel launch. A
        one-operation set is the serial baseline launch.
        """
        ...

    def rescale(
        self, partials: np.ndarray, workspace: Optional["Workspace"] = None
    ) -> np.ndarray:
        """Rescale ``(C, P, S)`` partials, or a C-contiguous stack
        ``(k, C, P, S)``, in place; return per-pattern log factors
        ``(P,)`` or ``(k, P)`` in the partials dtype, drawing scratch
        from ``workspace`` when given."""
        ...

    def root_reduce(
        self,
        partials: np.ndarray,
        frequencies: np.ndarray,
        category_weights: np.ndarray,
    ) -> np.ndarray:
        """Per-pattern root likelihoods ``Σ_c w_c Σ_z π_z L[c,p,z]``."""
        ...
