"""A test backend that runs every operation set in fixed-size blocks.

The blocked backend chooses its block size from the instance dimensions,
so tests cannot pick it. This backend drives the shared set executor
over an arbitrary fixed partition instead, which is the property the
blocked backend's bit-identity rests on: any partition of a set into
blocks computes the same bits as one block covering the whole set.

``FixedBlockBackend()`` with the default block runs every set as that
one block — ``ws.ensure(k)``, then one ``execute_operation_block(ops, 0,
k)`` — the whole-set arithmetic the suites compare the engine against.
"""

from __future__ import annotations

import sys

from repro.beagle import BlockedNumpyBackend
from repro.beagle.backends.setexec import execute_operation_block

__all__ = ["FixedBlockBackend"]


class FixedBlockBackend(BlockedNumpyBackend):
    """The engine's arithmetic over consecutive ``block``-operation
    slices; by default one slice covering the whole set."""

    def __init__(self, block: int = sys.maxsize) -> None:
        self.block = block

    def update_partials_batch(self, instance, operations) -> None:
        k, ws = len(operations), instance.workspace
        ws.ensure(min(k, self.block))
        for lo in range(0, k, self.block):
            execute_operation_block(
                instance, ws, operations, lo, min(lo + self.block, k)
            )
