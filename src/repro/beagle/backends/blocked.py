"""The NumPy kernel backend: BEAGLE's arithmetic in cache-sized pieces.

Streaming a whole k-operation set through arena buffers of ``2k`` rows
touches tens of megabytes per launch at 256 taxa × 1024 patterns, far
beyond any CPU cache level. This backend cuts each set along whichever
axis it has:

* **Wide sets** (at least :data:`NARROW_SET` operations) are partitioned
  into blocks of ``B`` operations along the batch axis, and the shared
  set executor runs the identical call sequence per block through a
  ``B``-row arena, keeping the hot rows cache-resident.
* **Narrow sets** (a pectinate or random tree's one- or two-operation
  sets) have no batch axis to cut. Each operation is assembled straight
  into its destination, pattern tile by pattern tile, keeping the
  tile's child contributions and destination slice cache-resident.

Both sizes follow from the instance's row size ``C·P·S·itemsize`` and
the one budget :data:`CACHE_BUDGET_BYTES`; nothing is configurable.

Bit-identity with one block covering the whole set holds on both paths:
the batched GEMM is a loop of independent 2-D multiplies, and a pattern
tile of ``L @ Pᵀ`` is a row partition of independent ``(S,)·(S,S)``
products (the reduction axis ``S`` is untouched), so neither partition
changes the arithmetic as long as every tile hands BLAS the operands in
the set executor's memory layout and is more than one pattern wide. The
tip-code path is an exact gather, and rescaling runs over the fully
assembled destination. The suites assert the equality empirically, down
to every buffer, against the one-block partition
(``tests/beagle/test_backends.py``,
``tests/property/test_backend_parity.py``) and against the recorded
byte golden (``tests/beagle/test_bank_golden.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ...models.eigen import transition_matrices
from ...obs import get_recorder
from ...obs.profile import PHASE_PARTIALS, PHASE_SCALING
from ..backend import BackendInfo
from ..kernels import rescale_partials, root_site_likelihoods
from ..workspace import Workspace
from .setexec import execute_operation_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...models.eigen import EigenDecomposition
    from ..instance import BeagleInstance
    from ..operations import Operation

__all__ = ["BlockedNumpyBackend", "CACHE_BUDGET_BYTES", "NARROW_SET"]

#: Target working-set size of one block or tile. A block's hot rows span
#: three ``(2B, C, P, S)`` arrays (contributions, scratch, gathered); a
#: tile's, six ``(C, tile, S)`` slices (two child contributions, the
#: destination, transpose and gather scratch). 768 KiB keeps either
#: comfortably L2-resident, which measured fastest in the block-size
#: sweep (B = 4 on the 256-taxon/1024-pattern f64 config; larger budgets
#: plateaued by B ≈ 32).
CACHE_BUDGET_BYTES = 768 * 1024

#: Sets with fewer operations than this run in pattern tiles; wider sets
#: run in batch-axis blocks.
NARROW_SET = 4

_MIN_BLOCK, _MAX_BLOCK = 4, 64
_MIN_TILE = 64


def _fits(row_bytes: int) -> int:
    """How many ``row_bytes`` rows fit six times into the budget."""
    return CACHE_BUDGET_BYTES // max(6 * row_bytes, 1)


def block_size(instance: "BeagleInstance") -> int:
    """Operations per batch-axis block, clamped to ``[4, 64]``."""
    row = (
        instance.category_count
        * instance.pattern_count
        * instance.state_count
        * instance.dtype.itemsize
    )
    return min(max(_fits(row), _MIN_BLOCK), _MAX_BLOCK)


def tile_size(instance: "BeagleInstance") -> int:
    """Patterns per tile: at least 64, at most the pattern count."""
    per_pattern = (
        instance.category_count * instance.state_count * instance.dtype.itemsize
    )
    return min(max(_fits(per_pattern), _MIN_TILE), instance.pattern_count)


def _child(instance: "BeagleInstance", buffer_index: int, matrix_index: int):
    """One child's contribution as a function of the pattern range,
    computed exactly as the set executor computes it."""
    partials, codes = instance._child_arrays(buffer_index)
    matrices = instance._matrices[matrix_index]
    if codes is not None:
        # Rows of Pᵀ gathered by state, a ones row standing in for the
        # unknown code S: exact copies, laid out contiguously.
        C, S = instance.category_count, instance.state_count
        padded_T = np.ones((C, S + 1, S), dtype=instance.dtype)
        padded_T[:, :S] = matrices.transpose(0, 2, 1)
        return lambda p0, p1: np.take(padded_T, codes[p0:p1], axis=1)
    if buffer_index < instance.tip_count:
        # Rare explicit tip partials: the executor's one full-width
        # product against the transposed view, sliced per tile.
        full = partials @ matrices.transpose(0, 2, 1)
        return lambda p0, p1: full[:, p0:p1]
    # Internal buffers, lower or upper: against the contiguous Pᵀ copy
    # the set executor multiplies by (BLAS may order the sums of a
    # transposed view differently).
    matrices_T = np.ascontiguousarray(matrices.transpose(0, 2, 1))
    return lambda p0, p1: partials[:, p0:p1] @ matrices_T


def _tiled_product(
    instance: "BeagleInstance", out: np.ndarray, first, second
) -> None:
    """Eq. 1 into ``out``: the product of two child contributions, tile
    by tile. Tiles split the patterns evenly, so none is a single
    pattern, which BLAS would route through a differently ordered
    matrix-vector kernel."""
    P = instance.pattern_count
    n = -(-P // tile_size(instance))
    bounds = [P * i // n for i in range(n + 1)]
    for p0, p1 in zip(bounds, bounds[1:]):
        np.multiply(first(p0, p1), second(p0, p1), out=out[:, p0:p1])


class BlockedNumpyBackend:
    """NumPy kernels run in cache-sized pattern tiles or batch blocks."""

    _info = BackendInfo(
        name="blocked",
        description=(
            "cache-blocked NumPy engine: pattern tiles for narrow sets, "
            "batch-axis blocks for wide"
        ),
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
        """One grow-on-demand arena, sized by the widest block seen."""
        return Workspace(dtype, category_count, pattern_count, state_count)

    def materialize_matrices(
        self, eigen: "EigenDecomposition", scaled_times: np.ndarray
    ) -> np.ndarray:
        """One batched eigen-multiply for all (time, category) pairs."""
        return transition_matrices(eigen, scaled_times)

    def update_partials_batch(
        self, instance: "BeagleInstance", operations: List["Operation"]
    ) -> None:
        """Narrow sets pattern-tiled, wide sets batch-axis blocked."""
        k = len(operations)
        if k >= NARROW_SET:
            block, ws = block_size(instance), instance.workspace
            ws.ensure(min(k, block))
            for lo in range(0, k, block):
                hi = min(lo + block, k)
                execute_operation_block(instance, ws, operations, lo, hi)
            return
        for op in operations:
            slot = op.destination - instance.tip_count
            out = instance._partials[slot]
            with get_recorder().phase(PHASE_PARTIALS):
                _tiled_product(
                    instance,
                    out,
                    _child(instance, op.child1, op.child1_matrix),
                    _child(instance, op.child2, op.child2_matrix),
                )
            if op.destination_scale >= 0:
                with get_recorder().phase(PHASE_SCALING):
                    logs = self.rescale(out, instance.workspace)
                    instance.scale.write(op.destination_scale, logs)
            instance._partials_valid[slot] = True

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
