"""Pattern-axis blocking for narrow operation sets.

The batch-axis blocking of :class:`BlockedNumpyBackend` only helps when a
set is *wide*: a pectinate tree's sets hold one or two operations each,
so there is no batch axis to partition and the whole
``(C, P, S)`` working set of every operation streams through cache
anyway. This backend adds the orthogonal cut: for narrow sets it
evaluates each operation pattern-tile by pattern-tile, keeping the tile's
child contributions and destination slice cache-resident. Wide sets
defer to the inherited batch-axis path, so the backend is never worse
than ``blocked``.

Bit-identity holds on both paths: a pattern tile of the child
contribution ``L @ Pᵀ`` is a row partition of independent
``(S,)·(S,S)`` products (the reduction axis ``S`` is untouched), the
tip-code path is an exact gather, and rescaling runs over the fully
assembled destination exactly as the shared set executor runs it. The
parity suite asserts the equality empirically per release.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ...obs import get_recorder
from ...obs.profile import PHASE_PARTIALS, PHASE_SCALING
from ..backend import BackendInfo
from ..kernels import child_contribution
from .blocked import DEFAULT_CACHE_BUDGET_BYTES, BlockedNumpyBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..instance import BeagleInstance
    from ..operations import Operation

__all__ = ["PatternBlockedBackend"]

#: Sets narrower than this run pattern-tiled; wider sets use the
#: inherited batch-axis blocking (which needs a batch axis to cut).
DEFAULT_NARROW_THRESHOLD = 4

_MIN_TILE = 64


class PatternBlockedBackend(BlockedNumpyBackend):
    """Cache blocking along the pattern axis for narrow sets.

    Parameters
    ----------
    narrow_threshold:
        Sets with fewer operations than this are evaluated one operation
        at a time in pattern tiles; wider sets use the inherited
        batch-axis blocking.
    pattern_tile:
        Fixed patterns per tile; ``None`` (default) sizes tiles from
        ``cache_budget_bytes`` and the instance dimensions, clamped to
        at least 64 patterns.
    block_ops, cache_budget_bytes:
        Passed through to :class:`BlockedNumpyBackend`.
    """

    _info = BackendInfo(
        name="pattern-blocked",
        description=(
            "pattern-axis blocking for narrow sets, batch-axis for wide "
            "(bit-identical)"
        ),
        kind="cpu",
        parity="bit-identical",
    )

    def __init__(
        self,
        block_ops: Optional[int] = None,
        cache_budget_bytes: int = DEFAULT_CACHE_BUDGET_BYTES,
        *,
        narrow_threshold: int = DEFAULT_NARROW_THRESHOLD,
        pattern_tile: Optional[int] = None,
    ) -> None:
        super().__init__(block_ops, cache_budget_bytes)
        if narrow_threshold < 1:
            raise ValueError("narrow_threshold must be positive")
        if pattern_tile is not None and pattern_tile < 1:
            raise ValueError("pattern_tile must be positive")
        self._narrow_threshold = narrow_threshold
        self._pattern_tile = pattern_tile

    def tile_for(self, instance: "BeagleInstance") -> int:
        """Patterns per tile for this instance's dimensions.

        Six hot ``(C, tile, S)`` slices per tile (two child
        contributions, the destination, plus transpose/gather scratch):
        ``6·C·tile·S`` elements inside the cache budget.
        """
        if self._pattern_tile is not None:
            return self._pattern_tile
        per_pattern = (
            6
            * instance.category_count
            * instance.state_count
            * instance.dtype.itemsize
        )
        tile = self._cache_budget_bytes // max(per_pattern, 1)
        return int(min(max(tile, _MIN_TILE), instance.pattern_count))

    def _tile_contribution(
        self,
        instance: "BeagleInstance",
        buffer_index: int,
        matrix_index: int,
        p0: int,
        p1: int,
    ) -> np.ndarray:
        """One child's contribution restricted to patterns ``p0:p1``."""
        matrices = instance._matrices[matrix_index]
        if buffer_index < instance.tip_count:
            if buffer_index in instance._tip_codes:
                codes = instance._tip_codes[buffer_index][p0:p1]
                return child_contribution(
                    matrices, codes=codes, dtype=instance.dtype
                )
            if buffer_index in instance._tip_partials:
                partials = instance._tip_partials[buffer_index]
                return partials[:, p0:p1, :] @ matrices.transpose(0, 2, 1)
            raise ValueError(f"tip buffer {buffer_index} has no data")
        slot = instance._internal_slot(buffer_index)
        if not instance._partials_valid[slot]:
            raise ValueError(
                f"partials buffer {buffer_index} read before being computed"
            )
        partials = instance._partials[slot]
        return partials[:, p0:p1, :] @ matrices.transpose(0, 2, 1)

    def _tiled_operation(
        self,
        instance: "BeagleInstance",
        op: "Operation",
        out: np.ndarray,
        tile: int,
    ) -> None:
        """Assemble one destination ``(C, P, S)`` tile by tile."""
        P = instance.pattern_count
        for p0 in range(0, P, tile):
            p1 = min(p0 + tile, P)
            left = self._tile_contribution(
                instance, op.child1, op.child1_matrix, p0, p1
            )
            right = self._tile_contribution(
                instance, op.child2, op.child2_matrix, p0, p1
            )
            np.multiply(left, right, out=out[:, p0:p1, :])

    def update_partials_batch(
        self, instance: "BeagleInstance", operations: List["Operation"]
    ) -> None:
        """Narrow sets pattern-tiled, wide sets batch-axis blocked."""
        if len(operations) >= self._narrow_threshold:
            super().update_partials_batch(instance, operations)
            return
        tile = self.tile_for(instance)
        for op in operations:
            slot = instance._internal_slot(op.destination)
            out = instance._partials[slot]
            with get_recorder().phase(PHASE_PARTIALS):
                self._tiled_operation(instance, op, out, tile)
            if op.destination_scale >= 0:
                # Over the fully assembled destination, so the maximum
                # sees the identical full-pattern array.
                with get_recorder().phase(PHASE_SCALING):
                    logs = self.rescale(out, instance.workspace)
                    instance.scale.write(op.destination_scale, logs)
            instance._partials_valid[slot] = True

    def update_upper_partials(
        self, instance: "BeagleInstance", operations: List["Operation"]
    ) -> None:
        """Pre-order twin: narrow upper sets pattern-tiled as well."""
        if len(operations) >= self._narrow_threshold:
            super().update_upper_partials(instance, operations)
            return
        tile = self.tile_for(instance)
        base = instance.upper_base
        upper = instance._upper
        upper_valid = instance._upper_valid
        assert upper is not None and upper_valid is not None
        P = instance.pattern_count
        for op in operations:
            parent_slot = op.child2 - base
            if not 0 <= parent_slot < upper.shape[0]:
                raise IndexError(f"upper buffer {op.child2} out of range")
            if not upper_valid[parent_slot]:
                raise ValueError(
                    f"upper buffer {op.child2} read before being computed"
                )
            dest = op.destination - base
            if not 0 <= dest < upper.shape[0]:
                raise IndexError(
                    f"upper destination {op.destination} out of range"
                )
            out = upper[dest]
            parent = upper[parent_slot]
            matrices = instance._matrices[op.child2_matrix]
            with get_recorder().phase(PHASE_PARTIALS):
                for p0 in range(0, P, tile):
                    p1 = min(p0 + tile, P)
                    left = self._tile_contribution(
                        instance, op.child1, op.child1_matrix, p0, p1
                    )
                    right = parent[:, p0:p1, :] @ matrices.transpose(0, 2, 1)
                    np.multiply(left, right, out=out[:, p0:p1, :])
            upper_valid[dest] = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tile = self._pattern_tile if self._pattern_tile is not None else "auto"
        return (
            f"<{type(self).__name__} {self._info.name} tile={tile} "
            f"narrow<{self._narrow_threshold}>"
        )
