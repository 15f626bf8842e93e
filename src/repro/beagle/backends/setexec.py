"""Operation-set executor of the NumPy backend's batch-axis blocks.

:func:`execute_operation_block` evaluates the slice ``ops[lo:hi]`` of an
independent operation set through a :class:`~repro.beagle.workspace.Workspace`
arena — classification, gathers, batched matmuls, the contribution
product, one stacked rescale and the destination scatter. Post-order
and pre-order (upper-partial) sets run through it alike: an upper
buffer is an ordinary internal buffer of the one partials bank. The
blocked backend partitions wide sets into cache-sized blocks and loops.

Bit-identity across block boundaries is structural, not incidental: the
batched ``matmul`` over ``(n, C, P, S)`` stacks is a loop of independent
2-D GEMMs, so restricting the same call sequence to a sub-range performs
exactly the same arithmetic on exactly the same operands. The property
suite (``tests/property/test_backend_parity.py``) still asserts it
empirically against one block covering the whole set.

Block-local row layout (``nb = hi - lo`` operations): first children
occupy contribution rows ``0..nb-1``, second children ``nb..2nb-1`` —
the same layout the monolithic engine used for the whole set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from ...obs import get_recorder
from ...obs.profile import PHASE_PARTIALS, PHASE_SCALING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..instance import BeagleInstance
    from ..operations import Operation
    from ..workspace import Workspace

__all__ = ["execute_operation_block"]


def _classify(
    instance: "BeagleInstance", ws: "Workspace", children: List[Tuple[int, int]]
) -> Tuple[int, int, int]:
    """Validate ``children[row] = (buffer, matrix)`` in row order and
    bucket each row as internal partials, compact tip codes or explicit
    tip partials. Pure int bookkeeping into preallocated arrays; returns
    the three bucket sizes."""
    n_int = n_code = n_exp = 0
    tip_count, valid = instance.tip_count, instance._partials_valid
    codes, tips = instance._tip_codes, instance._tip_partials
    for row, (b, mat) in enumerate(children):
        ws.child_buffers[row] = b
        if b >= tip_count:
            slot = instance._internal_slot(b)
            if not valid[slot]:
                raise ValueError(f"partials buffer {b} read before being computed")
            ws.internal_sel[n_int] = row
            ws.internal_slots[n_int] = slot
            ws.internal_mats[n_int] = mat
            n_int += 1
        elif b in codes:
            ws.code_sel[n_code] = row
            ws.code_tips[n_code] = b
            ws.code_mats[n_code] = mat
            n_code += 1
        elif b in tips:
            ws.explicit_sel[n_exp] = row
            ws.explicit_mats[n_exp] = mat
            n_exp += 1
        else:
            raise ValueError(f"tip buffer {b} has no data")
    return n_int, n_code, n_exp


def _contributions(
    instance: "BeagleInstance",
    ws: "Workspace",
    counts: Tuple[int, int, int],
) -> None:
    """Write every classified row's contribution ``L @ Pᵀ`` into
    ``ws.contributions``, one batched call per bucket."""
    n_int, n_code, n_exp = counts
    C, S = instance.category_count, instance.state_count
    if n_int:
        # Internal children: gather partials and matrices into
        # contiguous stacks, one batched L @ Pᵀ, scatter back.
        np.take(
            instance._partials,
            ws.internal_slots[:n_int],
            axis=0,
            out=ws.gathered[:n_int],
        )
        np.take(
            instance._matrices,
            ws.internal_mats[:n_int],
            axis=0,
            out=ws.mats[:n_int],
        )
        np.copyto(ws.mats_T[:n_int], ws.mats[:n_int].transpose(0, 1, 3, 2))
        np.matmul(ws.gathered[:n_int], ws.mats_T[:n_int], out=ws.scratch[:n_int])
        ws.contributions[ws.internal_sel[:n_int]] = ws.scratch[:n_int]
    if n_code:
        # Compact tips: transpose matrices and pad a ones row at state
        # index S (the "unknown" code), then resolve every (row,
        # category, pattern) to one flat row gather.
        np.take(
            instance._matrices,
            ws.code_mats[:n_code],
            axis=0,
            out=ws.mats[:n_code],
        )
        np.copyto(
            ws.padded_T[:n_code, :, :S, :],
            ws.mats[:n_code].transpose(0, 1, 3, 2),
        )
        ws.padded_T[:n_code, :, S, :] = 1.0
        np.take(
            instance._tip_codes_dense,
            ws.code_tips[:n_code],
            axis=0,
            out=ws.codes[:n_code],
        )
        np.add(
            ws.row_base[:n_code, :, None],
            ws.codes[:n_code][:, None, :],
            out=ws.rowidx[:n_code],
        )
        rows2d = ws.padded_T[:n_code].reshape(n_code * C * (S + 1), S)
        np.take(
            rows2d,
            ws.rowidx[:n_code],
            axis=0,
            out=ws.scratch[:n_code],
            mode="clip",
        )
        ws.contributions[ws.code_sel[:n_code]] = ws.scratch[:n_code]
    for j in range(n_exp):  # rare: partial-ambiguity tips
        row = int(ws.explicit_sel[j])
        partials = instance._tip_partials[int(ws.child_buffers[row])]
        np.matmul(
            partials,
            instance._matrices[int(ws.explicit_mats[j])].transpose(0, 2, 1),
            out=ws.contributions[row],
        )


def execute_operation_block(
    instance: "BeagleInstance",
    ws: "Workspace",
    ops: List["Operation"],
    lo: int,
    hi: int,
) -> None:
    """Evaluate operations ``ops[lo:hi]`` through the arena ``ws``.

    The caller must have sized the arena (``ws.ensure(hi - lo)``) and
    validated set independence and destinations. Child buffers, lower
    or upper, are validated here (firsts before seconds, matching the
    one-operation execution order), destinations are written and marked
    valid, and operations carrying a ``destination_scale`` are rescaled
    exactly as a one-operation launch rescales — so any partition of a
    set into blocks computes the same bits as one block covering the
    whole set.
    """
    nb = hi - lo
    block = ops[lo:hi]
    with get_recorder().phase(PHASE_PARTIALS):
        children = [(op.child1, op.child1_matrix) for op in block]
        children += [(op.child2, op.child2_matrix) for op in block]
        counts = _classify(instance, ws, children)
        for i, op in enumerate(block):
            ws.dest_slots[i] = op.destination - instance.tip_count
        _contributions(instance, ws, counts)
        product = ws.contributions[:nb]
        np.multiply(product, ws.contributions[nb : 2 * nb], out=product)
    scaled = [i for i, op in enumerate(block) if op.destination_scale >= 0]
    if scaled:
        with get_recorder().phase(PHASE_SCALING):
            # One stacked rescale for the block; when only some
            # operations scale, their rows go through the gather
            # scratch (free once the product is formed) and back.
            if len(scaled) == nb:
                logs = instance.backend.rescale(product, ws)
            else:
                rows = ws.gathered[: len(scaled)]
                np.take(product, scaled, axis=0, out=rows)
                logs = instance.backend.rescale(rows, ws)
                product[scaled] = rows
            for i, row in zip(scaled, logs):
                instance.scale.write(block[i].destination_scale, row)
    instance._partials[ws.dest_slots[:nb]] = product
    instance._partials_valid[ws.dest_slots[:nb]] = True
