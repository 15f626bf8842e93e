"""Vectorised partial-likelihood kernels.

These are the NumPy counterparts of BEAGLE's CUDA kernels. Array layout is
``(categories, patterns, states)`` for partials and
``(categories, states, states)`` for transition matrices, so the paper's
fine-grained ``patterns × states`` grid maps onto contiguous BLAS batches,
and the medium-grained ``× subtrees`` axis (paper §IV-B) is one more
leading batch dimension.

Partials launches do not run here: every operation set goes through
:mod:`repro.beagle.backends.setexec`. This module holds the per-buffer
arithmetic the instance and the backends share — child contributions,
rescaling, root and edge reductions.

FLOP accounting (:func:`operation_flops`) follows the paper's effective-
FLOPS throughput metric (§VI-C).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .workspace import Workspace

__all__ = [
    "child_contribution",
    "dense_tip_partials",
    "root_site_likelihoods",
    "edge_site_likelihoods",
    "pattern_max",
    "rescale_partials",
    "operation_flops",
]


def dense_tip_partials(
    codes: np.ndarray,
    n_states: int,
    n_categories: int,
    dtype: np.dtype,
) -> np.ndarray:
    """Expand compact tip codes to dense ``(C, P, S)`` partials.

    The identity-matrix contribution of :func:`child_contribution`:
    observed states become one-hot rows, the "unknown" code ``n_states``
    becomes all-ones. Used to seed pre-order upper-partial buffers from
    tip sources and to hand tip lowers to the per-branch derivative
    recombination.
    """
    eye = np.eye(n_states, dtype=dtype)
    return child_contribution(
        np.broadcast_to(eye, (n_categories, n_states, n_states)),
        codes=codes,
        dtype=np.dtype(dtype),
    )


def child_contribution(
    matrices: np.ndarray,
    partials: Optional[np.ndarray] = None,
    codes: Optional[np.ndarray] = None,
    dtype: Optional[np.dtype] = None,
) -> np.ndarray:
    """One child's factor of Eq. 1: ``Σ_x P(x|z,t) L(x)``.

    Parameters
    ----------
    matrices:
        ``(C, S, S)`` transition matrices, ``matrices[c, z, x] =
        Pr(x | z, t·r_c)``.
    partials:
        ``(C, P, S)`` child partials (internal node or ambiguous tip).
    codes:
        ``(P,)`` compact tip states; the value ``S`` means "unknown"
        (contribution 1 for every parent state). Exactly one of
        ``partials``/``codes`` must be given.
    dtype:
        Dtype of the code-gather scratch (and hence the result on the
        codes path); defaults to ``matrices.dtype`` so float32 inputs
        yield float32 contributions instead of silently widening.

    Returns
    -------
    ndarray
        ``(C, P, S)`` contribution indexed by parent state ``z``.
    """
    if (partials is None) == (codes is None):
        raise ValueError("provide exactly one of partials or codes")
    if partials is not None:
        # Σ_x L[c,p,x] · P[c,z,x]  ==  L @ Pᵀ  batched over categories.
        return partials @ matrices.transpose(0, 2, 1)
    C, S, _ = matrices.shape
    codes = np.asarray(codes)
    if dtype is None:
        dtype = matrices.dtype
    # Gather columns of P by observed state; pad with a ones column so the
    # unknown code S yields a contribution of 1 for every parent state.
    padded = np.concatenate(
        [matrices, np.ones((C, S, 1), dtype=dtype)], axis=2
    )
    return padded[:, :, codes].transpose(0, 2, 1)


def pattern_max(stack: np.ndarray, out: np.ndarray, slab: np.ndarray) -> np.ndarray:
    """Per-pattern maximum of a ``(k, C, P, S)`` stack into ``out (k, P)``.

    An elementwise maximum over the contiguous category slabs into
    ``slab (k, P, S)``, then ``S − 1`` passes over per-state views. A
    maximum is exact in any order and propagates NaN, so this equals
    ``np.amax(stack, axis=(1, 3))`` bit for bit, at a fraction of the
    cost of NumPy's reduction over a short innermost axis.
    """
    k, C, P, S = stack.shape
    rows = stack[:, 0]
    if C > 1:
        np.maximum(rows, stack[:, 1], out=slab)
        for c in range(2, C):
            np.maximum(slab, stack[:, c], out=slab)
        rows = slab
    if S == 1:
        np.copyto(out, rows[:, :, 0])
        return out
    np.maximum(rows[:, :, 0], rows[:, :, 1], out=out)
    for s in range(2, S):
        np.maximum(out, rows[:, :, s], out=out)
    return out


def rescale_partials(
    partials: np.ndarray, workspace: Optional["Workspace"] = None
) -> np.ndarray:
    """Rescale ``(C, P, S)`` partials, or a C-contiguous ``(k, C, P, S)``
    stack, in place; return ``(P,)`` or ``(k, P)`` log factors.

    A pattern's factor is its maximum across categories and states
    (BEAGLE's "dynamic max" scaler, :func:`pattern_max`); a factor that
    is not positive becomes 1, so a hard underflow stays visible as a
    −inf site likelihood rather than NaN. Logs are in the partials dtype
    and live in ``workspace`` scratch (a fresh one when ``None``) until
    its next use. Each factor is repeated across its ``S`` states so the
    division's inner loop is contiguous; every element still sees the
    same IEEE operands, so the result is bit-identical to rescaling each
    buffer alone however many are stacked.
    """
    stack = partials if partials.ndim == 4 else partials[None]
    if not stack.flags.c_contiguous:
        raise ValueError("rescaled partials must be C-contiguous")
    k, C, P, S = stack.shape
    if workspace is None:
        workspace = Workspace(stack.dtype, C, P, S)
    logs, slab, mask = workspace.scale_scratch(k)
    factors = pattern_max(stack, logs, slab)
    np.greater(factors, 0.0, out=mask)
    np.logical_not(mask, out=mask)
    np.copyto(factors, 1.0, where=mask)
    np.copyto(slab, factors[:, :, None])
    flat = stack.reshape(k, C, P * S)
    np.divide(flat, slab.reshape(k, 1, P * S), out=flat)
    np.log(factors, out=factors)
    return logs if partials.ndim == 4 else logs[0]


def root_site_likelihoods(
    partials: np.ndarray,
    frequencies: np.ndarray,
    category_weights: np.ndarray,
) -> np.ndarray:
    """Per-pattern likelihood at the root: ``Σ_c w_c Σ_z π_z L[c,p,z]``."""
    by_category = partials @ frequencies  # (C, P)
    return category_weights @ by_category  # (P,)


def edge_site_likelihoods(
    parent_partials: np.ndarray,
    child_contribution_: np.ndarray,
    frequencies: np.ndarray,
    category_weights: np.ndarray,
) -> np.ndarray:
    """Per-pattern likelihood across a root edge.

    ``parent_partials`` are the partials of the node above the edge viewed
    as a half-tree root; ``child_contribution_`` is
    :func:`child_contribution` of the node below across the edge's
    transition matrices.
    """
    joint = parent_partials * child_contribution_
    by_category = joint @ frequencies
    return category_weights @ by_category


def operation_flops(n_patterns: int, n_states: int, n_categories: int = 1) -> int:
    """Effective floating-point operations of one partial-likelihood op.

    Per category, pattern and parent state: two length-``S`` inner
    products (``2S`` multiply–adds each) plus the final multiply — the
    count underlying the paper's GFLOPS throughput metric.
    """
    per_state = 4 * n_states + 1
    return n_categories * n_patterns * n_states * per_state
