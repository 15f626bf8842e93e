"""A test backend that runs every operation set in fixed-size blocks.

The blocked backend chooses its block size from the instance dimensions,
so tests cannot pick it. This backend drives the shared set executor
over an arbitrary fixed partition instead, which is the property the
blocked backend's bit-identity rests on: any partition of a set into
blocks computes the same bits as one block covering the whole set.
"""

from __future__ import annotations

from repro.beagle import ReferenceBackend
from repro.beagle.backends.setexec import execute_operation_block

__all__ = ["FixedBlockBackend"]


class FixedBlockBackend(ReferenceBackend):
    """Reference arithmetic over consecutive ``block``-operation slices."""

    def __init__(self, block: int) -> None:
        self.block = block

    def update_partials_batch(self, instance, operations) -> None:
        k, ws = len(operations), instance.workspace
        ws.ensure(min(k, self.block))
        for lo in range(0, k, self.block):
            execute_operation_block(
                instance, ws, operations, lo, min(lo + self.block, k)
            )
