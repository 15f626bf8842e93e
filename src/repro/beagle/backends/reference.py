"""The reference NumPy backend — the engine's original kernel path.

This is the code that lived inline in
:class:`~repro.beagle.instance.BeagleInstance` before the backend split,
verbatim: one arena sized to the whole operation set, one pass of
gathers/matmuls/product per launch. Its log-likelihoods define
correctness — every other backend is gated against it by
:mod:`repro.beagle.parity`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ...models.eigen import transition_matrices
from ..backend import BackendInfo
from ..kernels import rescale_partials, root_site_likelihoods
from ..workspace import Workspace
from .setexec import execute_operation_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...models.eigen import EigenDecomposition
    from ..instance import BeagleInstance
    from ..operations import Operation

__all__ = ["ReferenceBackend"]


class ReferenceBackend:
    """Baseline NumPy kernels; the parity gate's ground truth."""

    _info = BackendInfo(
        name="reference",
        description="baseline NumPy engine (whole-set arena, one pass)",
        kind="cpu",
        parity="bit-identical",
    )

    @property
    def info(self) -> BackendInfo:
        """Static descriptor: name, kind and parity class."""
        return self._info

    def create_workspace(
        self,
        dtype: np.dtype,
        category_count: int,
        pattern_count: int,
        state_count: int,
    ) -> Workspace:
        """One grow-on-demand arena sized to the widest set seen."""
        return Workspace(dtype, category_count, pattern_count, state_count)

    def materialize_matrices(
        self, eigen: "EigenDecomposition", scaled_times: np.ndarray
    ) -> np.ndarray:
        """One batched eigen-multiply for all (time, category) pairs."""
        return transition_matrices(eigen, scaled_times)

    def update_partials_batch(
        self, instance: "BeagleInstance", operations: List["Operation"]
    ) -> None:
        """Evaluate the whole set as a single arena block."""
        k = len(operations)
        ws = instance.workspace
        ws.ensure(k)
        execute_operation_block(instance, ws, operations, 0, k)

    def rescale(
        self, partials: np.ndarray, workspace: Optional[Workspace] = None
    ) -> np.ndarray:
        """BEAGLE's dynamic-max rescale (see :func:`rescale_partials`)."""
        return rescale_partials(partials, workspace)

    def root_reduce(
        self,
        partials: np.ndarray,
        frequencies: np.ndarray,
        category_weights: np.ndarray,
    ) -> np.ndarray:
        """Frequency/category contraction to per-pattern likelihoods."""
        return root_site_likelihoods(partials, frequencies, category_weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._info.name}>"
