"""The BEAGLE-work-alike likelihood instance.

:class:`BeagleInstance` mirrors the buffer-indexed API of the BEAGLE
library (§III of the paper): tips and internal nodes are *partials
buffers*, branches are *transition-matrix buffers*, and likelihood
evaluation is driven by submitting :class:`~repro.beagle.operations.Operation`
lists. The instance does not know about trees — exactly as in BEAGLE, the
calling code (here :mod:`repro.core.planner`) maps a tree traversal onto
buffer indices.

Execution instrumentation (``stats``) records kernel launches, operations
and effective FLOPs so the GPU device model (:mod:`repro.gpu`) and the
benchmarks can account throughput the way the paper does (§VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..models.eigen import EigenDecomposition
from ..obs import get_recorder, record_backend_info
from ..obs.profile import PHASE_MATRICES, PHASE_ROOT
from .backend import KernelBackend
from .kernels import (
    child_contribution,
    dense_tip_partials,
    edge_site_likelihoods,
    operation_flops,
)
from .operations import Operation, operations_independent
from .resources import resolve_backend
from .scaling import ScaleBufferBank
from .workspace import TransitionMatrixCache, Workspace

__all__ = ["BeagleInstance", "InstanceStats"]


@dataclass
class InstanceStats:
    """Execution counters since construction or the last ``reset``."""

    kernel_launches: int = 0
    operations: int = 0
    flops: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.kernel_launches = 0
        self.operations = 0
        self.flops = 0


class BeagleInstance:
    """A likelihood-computation instance over fixed-size buffers.

    Every operation set — regardless of size — executes through a
    preallocated :class:`~repro.beagle.workspace.Workspace` arena, so
    batched execution is allocation-free in steady state and per-
    operation results are bit-identical however the scheduler groups
    operations into sets (full traversals and incremental dirty paths
    agree exactly). An optional
    :class:`~repro.beagle.workspace.TransitionMatrixCache` can be
    attached as :attr:`matrix_cache` to serve repeated
    ``update_transition_matrices`` lengths from an LRU instead of
    recomputing the eigen-multiply.

    Parameters
    ----------
    tip_count:
        Number of tip buffers (indices ``0 .. tip_count-1``).
    partials_buffer_count:
        Number of internal partials buffers (indices ``tip_count ..``).
    matrix_count:
        Number of transition-matrix buffers.
    pattern_count, state_count:
        Data dimensions ``p`` and ``s``.
    category_count:
        Rate categories ``c`` (default 1).
    scale_buffer_count:
        Scale buffers for manual rescaling (0 disables).
    dtype:
        Floating-point precision of partials and matrices:
        ``numpy.float64`` (default) or ``numpy.float32``. Single
        precision is the GPU-typical configuration whose underflow on
        large trees motivates the paper's ``--manualscale`` option
        (§VI-F); scale buffers always stay in double precision, exactly
        as BEAGLE keeps log scalers at higher precision.
    backend:
        The kernel implementation executing this instance's launches:
        ``None`` (default — resolve via
        :func:`repro.beagle.resources.resolve_backend`, honouring the
        ``REPRO_BACKEND`` environment variable), a registered resource
        name, or a :class:`~repro.beagle.backend.KernelBackend` object.
        See ``docs/BACKENDS.md`` for the contract backends honour.
    """

    def __init__(
        self,
        tip_count: int,
        partials_buffer_count: int,
        matrix_count: int,
        pattern_count: int,
        state_count: int,
        category_count: int = 1,
        scale_buffer_count: int = 0,
        dtype=np.float64,
        backend: Union[None, str, KernelBackend] = None,
    ) -> None:
        if min(tip_count, partials_buffer_count, matrix_count) < 1:
            raise ValueError("buffer counts must be positive")
        if min(pattern_count, state_count, category_count) < 1:
            raise ValueError("data dimensions must be positive")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        self.dtype = dtype
        #: The resolved kernel backend executing this instance's launches.
        self.backend: KernelBackend = resolve_backend(backend)
        self.tip_count = tip_count
        self.partials_buffer_count = partials_buffer_count
        self.matrix_buffer_count = matrix_count
        self.pattern_count = pattern_count
        self.state_count = state_count
        self.category_count = category_count

        # Tip storage: compact codes or explicit partials, per tip index.
        self._tip_codes: Dict[int, np.ndarray] = {}
        self._tip_partials: Dict[int, np.ndarray] = {}
        # Dense mirror of tip codes for vectorised multi-operation gathers.
        self._tip_codes_dense = np.zeros((tip_count, pattern_count), dtype=np.int64)
        # Internal partials: one dense block, views handed to kernels.
        self._partials = np.zeros(
            (partials_buffer_count, category_count, pattern_count, state_count),
            dtype=dtype,
        )
        self._partials_valid = np.zeros(partials_buffer_count, dtype=bool)
        # Bank rows lower (post-order) launches may write; upper rows
        # are appended by enable_upper_partials().
        self._lower_rows = range(partials_buffer_count)
        self._matrices = np.zeros(
            (matrix_count, category_count, state_count, state_count), dtype=dtype
        )
        self.scale = ScaleBufferBank(scale_buffer_count, pattern_count)

        self._weights = np.ones(pattern_count)
        self._frequencies = np.full(state_count, 1.0 / state_count)
        self._category_rates = np.ones(category_count)
        self._category_weights = np.full(category_count, 1.0 / category_count)
        self._rates_key: bytes = self._category_rates.tobytes()
        self._eigens: Dict[int, EigenDecomposition] = {}

        #: Optional LRU transition-matrix cache; ``None`` disables caching.
        self.matrix_cache: Optional[TransitionMatrixCache] = None
        # Scratch arena for batched set execution, created on first use.
        self._workspace: Optional[Workspace] = None

        self.stats = InstanceStats()
        if get_recorder().enabled:
            # Info-metric: a metrics export names the backend that
            # actually executed (the CI backend-matrix grep gate).
            record_backend_info(self.backend.info)

    # ------------------------------------------------------------------
    # Data setters (the beagleSet* family)
    # ------------------------------------------------------------------
    def set_tip_states(self, tip_index: int, codes: Sequence[int]) -> None:
        """Compact observed states for a tip (``state_count`` = unknown)."""
        self._check_tip(tip_index)
        arr = np.asarray(codes, dtype=np.int64)
        if arr.shape != (self.pattern_count,):
            raise ValueError("codes length must equal pattern count")
        if arr.min() < 0 or arr.max() > self.state_count:
            raise ValueError("tip codes out of range")
        self._tip_codes[tip_index] = arr
        self._tip_codes_dense[tip_index] = arr
        self._tip_partials.pop(tip_index, None)

    def set_tip_partials(self, tip_index: int, partials: np.ndarray) -> None:
        """Explicit tip partials ``(patterns, states)`` (ambiguity codes)."""
        self._check_tip(tip_index)
        arr = np.asarray(partials, dtype=self.dtype)
        if arr.shape != (self.pattern_count, self.state_count):
            raise ValueError("tip partials must be (patterns, states)")
        # Broadcast across categories once; kernels then treat the tip
        # exactly like an internal buffer.
        self._tip_partials[tip_index] = np.broadcast_to(
            arr, (self.category_count,) + arr.shape
        ).copy()
        self._tip_codes.pop(tip_index, None)

    def set_pattern_weights(self, weights: Sequence[float]) -> None:
        """Per-pattern multiplicities used by the likelihood reductions."""
        arr = np.asarray(weights, dtype=np.float64)
        if arr.shape != (self.pattern_count,):
            raise ValueError("weights length must equal pattern count")
        if np.any(arr < 0):
            raise ValueError("pattern weights must be non-negative")
        self._weights = arr

    def set_state_frequencies(self, frequencies: Sequence[float]) -> None:
        """Stationary state frequencies π (renormalised to sum to 1)."""
        arr = np.asarray(frequencies, dtype=np.float64)
        if arr.shape != (self.state_count,):
            raise ValueError("frequency length must equal state count")
        if np.any(arr < 0) or arr.sum() <= 0:
            raise ValueError("frequencies must be non-negative and sum > 0")
        self._frequencies = arr / arr.sum()

    def set_category_rates(self, rates: Sequence[float]) -> None:
        """Rate multiplier of each among-site rate category.

        Changing the rates also changes the rates version key, so any
        attached :attr:`matrix_cache` entries computed under the old
        rates can no longer be served (their keys stop matching).
        """
        arr = np.asarray(rates, dtype=np.float64)
        if arr.shape != (self.category_count,):
            raise ValueError("rates length must equal category count")
        self._category_rates = arr
        self._rates_key = arr.tobytes()

    def set_category_weights(self, weights: Sequence[float]) -> None:
        """Prior probability of each rate category (must sum to 1)."""
        arr = np.asarray(weights, dtype=np.float64)
        if arr.shape != (self.category_count,):
            raise ValueError("weights length must equal category count")
        if np.any(arr < 0) or not np.isclose(arr.sum(), 1.0):
            raise ValueError("category weights must be a distribution")
        self._category_weights = arr

    def set_eigen_decomposition(self, index: int, eigen: EigenDecomposition) -> None:
        """Install a model's eigendecomposition under a buffer index."""
        if eigen.n_states != self.state_count:
            raise ValueError("eigen decomposition has wrong state count")
        self._eigens[index] = eigen

    # ------------------------------------------------------------------
    # Transition matrices
    # ------------------------------------------------------------------
    def update_transition_matrices(
        self,
        eigen_index: int,
        matrix_indices: Sequence[int],
        branch_lengths: Sequence[float],
    ) -> None:
        """Compute ``P(rate_c · t)`` for each (matrix, branch) pair.

        All matrices for all categories are produced by one batched
        eigen-multiply — the work BEAGLE performs in
        ``beagleUpdateTransitionMatrices``. When a
        :attr:`matrix_cache` is attached, each pair is first looked up
        in the LRU (keyed by eigen decomposition, rates version and
        quantized branch length); only the misses are computed — still
        in one batched call — and cached. Because the eigen-multiply is
        batch-composition invariant, cached and freshly computed
        matrices are bit-identical.
        """
        if eigen_index not in self._eigens:
            raise KeyError(f"eigen decomposition {eigen_index} not set")
        idx = np.asarray(matrix_indices, dtype=np.int64)
        t = np.asarray(branch_lengths, dtype=np.float64)
        if idx.shape != t.shape:
            raise ValueError("matrix indices and branch lengths must pair up")
        if idx.size and (idx.min() < 0 or idx.max() >= self._matrices.shape[0]):
            raise IndexError("matrix index out of range")
        obs = get_recorder()
        with obs.span(
            "kernel.matrices", category="kernel", matrices=int(idx.size)
        ), obs.phase(PHASE_MATRICES):
            if self.matrix_cache is not None:
                self._update_matrices_cached(
                    self.matrix_cache, self._eigens[eigen_index], idx, t, obs
                )
                return
            # (k·C,) scaled times -> (k, C, S, S)
            scaled = (t[:, None] * self._category_rates[None, :]).reshape(-1)
            P = self.backend.materialize_matrices(self._eigens[eigen_index], scaled)
            P = P.reshape(
                len(idx), self.category_count, self.state_count, self.state_count
            )
            self._matrices[idx] = P

    def _update_matrices_cached(
        self,
        cache: TransitionMatrixCache,
        eigen: EigenDecomposition,
        idx: np.ndarray,
        t: np.ndarray,
        obs,
    ) -> None:
        """Serve matrix updates from the LRU; batch-compute the misses.

        Duplicate branch lengths *within* one call are computed once and
        counted as hits — a tree with tied lengths warms its own call.
        """
        resolved: List[Optional[np.ndarray]] = []
        # key -> (effective length, positions awaiting the computed matrix)
        pending: Dict[Hashable, Tuple[float, List[int]]] = {}
        for i in range(idx.size):
            length = float(t[i])
            key = cache.key_for(eigen, self._rates_key, length)
            cached = cache.lookup(key)
            if cached is not None:
                resolved.append(cached)
            else:
                entry = pending.get(key)
                if entry is None:
                    pending[key] = (cache.effective_length(length), [i])
                else:
                    entry[1].append(i)
                resolved.append(None)
        n_misses = len(pending)
        n_hits = int(idx.size) - n_misses
        if pending:
            C, S = self.category_count, self.state_count
            lengths = np.array([eff for eff, _ in pending.values()])
            scaled = (lengths[:, None] * self._category_rates[None, :]).reshape(-1)
            P = self.backend.materialize_matrices(eigen, scaled).reshape(
                n_misses, C, S, S
            )
            for j, (key, (_, positions)) in enumerate(pending.items()):
                matrix = np.ascontiguousarray(P[j])
                cache.store(key, matrix, pin=eigen)
                for position in positions:
                    resolved[position] = matrix
        for i in range(idx.size):
            self._matrices[idx[i]] = resolved[i]
        cache.hits += n_hits
        cache.misses += n_misses
        if obs.enabled:
            if n_hits:
                obs.count("repro_matrix_cache_hits_total", n_hits)
            if n_misses:
                obs.count("repro_matrix_cache_misses_total", n_misses)

    def set_transition_matrix(self, matrix_index: int, matrix: np.ndarray) -> None:
        """Directly install a ``(C, S, S)`` or ``(S, S)`` matrix buffer."""
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim == 2:
            arr = np.broadcast_to(
                arr, (self.category_count,) + arr.shape
            )
        if arr.shape != self._matrices.shape[1:]:
            raise ValueError("matrix has wrong shape")
        self._matrices[matrix_index] = arr

    # ------------------------------------------------------------------
    # Buffer access helpers
    # ------------------------------------------------------------------
    def _check_tip(self, tip_index: int) -> None:
        if not 0 <= tip_index < self.tip_count:
            raise IndexError(f"tip index {tip_index} out of range")

    def _internal_slot(self, buffer_index: int) -> int:
        slot = buffer_index - self.tip_count
        if not 0 <= slot < len(self._partials_valid):
            raise IndexError(f"partials buffer {buffer_index} out of range")
        return slot

    def _child_arrays(self, buffer_index: int):
        """Return ``(partials, codes)`` for a child buffer (one is None)."""
        if buffer_index < self.tip_count:
            if buffer_index in self._tip_codes:
                return None, self._tip_codes[buffer_index]
            if buffer_index in self._tip_partials:
                return self._tip_partials[buffer_index], None
            raise ValueError(f"tip buffer {buffer_index} has no data")
        slot = self._internal_slot(buffer_index)
        if not self._partials_valid[slot]:
            raise ValueError(
                f"partials buffer {buffer_index} read before being computed"
            )
        return self._partials[slot], None

    def get_partials(self, buffer_index: int) -> np.ndarray:
        """Copy of a computed partials buffer ``(C, P, S)``."""
        partials, codes = self._child_arrays(buffer_index)
        if partials is None:
            # Expand tip codes for inspection convenience.
            return child_contribution(
                np.broadcast_to(
                    np.eye(self.state_count),
                    (self.category_count, self.state_count, self.state_count),
                ),
                codes=codes,
            )
        return np.array(partials, copy=True)

    def invalidate_partials(self) -> None:
        """Mark every internal buffer, upper buffers included, as
        not-yet-computed."""
        self._partials_valid[:] = False

    # ------------------------------------------------------------------
    # Pre-order upper partials (the all-branch gradient bank)
    # ------------------------------------------------------------------
    @property
    def upper_base(self) -> int:
        """First upper-partial buffer index (one past the lower buffers).

        The upper partials of the node with lower buffer index ``i`` live
        at global index ``upper_base + i``; operations over the combined
        space need no bank tag (see :mod:`repro.core.schedule`).
        """
        return self.tip_count + self.partials_buffer_count

    def enable_upper_partials(self) -> None:
        """Grow the partials bank by one upper buffer per node (idempotent).

        Tips get a slot too, because every branch (tip branches too) has
        a far-side half-tree. The bank is copied into one ``upper_base``
        rows longer, keeping every lower buffer and its validity, so the
        call is safe between evaluations; it roughly triples the partials
        footprint, which is why it is opt-in. Afterwards the upper buffer
        ``upper_base + i`` is an ordinary internal buffer.
        """
        lower = self.partials_buffer_count
        if len(self._partials_valid) > lower:
            return
        size = lower + self.upper_base
        bank = np.zeros((size,) + self._partials.shape[1:], dtype=self.dtype)
        bank[:lower] = self._partials
        valid = np.zeros(size, dtype=bool)
        valid[:lower] = self._partials_valid
        self._partials, self._partials_valid = bank, valid

    def _upper_rows(self) -> range:
        """Bank rows of the upper buffers (raises until enabled)."""
        if len(self._partials_valid) == self.partials_buffer_count:
            raise ValueError(
                "upper partials not enabled; call enable_upper_partials()"
            )
        return range(self.partials_buffer_count, len(self._partials_valid))

    def seed_upper_partials(self, destination: int, source: int) -> None:
        """Seed a root child's upper buffer from its sibling's lowers.

        ``destination`` is a global upper index (``upper_base + node``),
        ``source`` a lower buffer. Under the suppressed-root (pulley)
        view the far side of a root child's branch is exactly the sibling
        subtree, so the seed is a copy — tip codes are expanded to dense
        one-hot partials in the instance dtype.
        """
        slot = destination - self.tip_count
        if slot not in self._upper_rows():
            raise IndexError(f"upper buffer {destination} out of range")
        partials, codes = self._child_arrays(source)
        if partials is None:
            self._partials[slot] = dense_tip_partials(
                codes, self.state_count, self.category_count, self.dtype
            )
        else:
            self._partials[slot] = partials
        self._partials_valid[slot] = True

    def upper_partials(self, node_buffer: int) -> np.ndarray:
        """Copy of a node's computed upper partials ``(C, P, S)``.

        ``node_buffer`` is the node's *lower* buffer index; the method
        offsets into the upper buffers itself.
        """
        index = self.upper_base + node_buffer
        if index - self.tip_count not in self._upper_rows():
            raise IndexError(f"upper buffer {index} out of range")
        return self.get_partials(index)

    def update_upper_partials_set(self, operations: Sequence[Operation]) -> None:
        """Execute one independent *upper*-partial operation set.

        The pre-order analogue of :meth:`update_partials_set` and the same
        launch: each operation's ``child1`` is a sibling's lower buffer,
        its ``child2`` the parent's upper buffer, and only upper buffers
        may be destinations.
        """
        ops = list(operations)
        if ops:
            self._launch(ops, "kernel.upper", self._upper_rows())

    def enable_scaling(self, count: int) -> None:
        """Grow the scale bank to at least ``count`` buffers.

        Rescaling escalation (:class:`repro.exec.resilient.ResilientInstance`)
        upgrades an instance created without scale buffers when underflow
        is detected mid-run; existing buffers keep their contents so the
        call is idempotent and safe between evaluations.
        """
        if count < 0:
            raise ValueError("scale buffer count must be non-negative")
        if count <= self.scale.count:
            return
        bank = ScaleBufferBank(count, self.pattern_count)
        if self.scale.count:
            bank._logs[: self.scale.count] = self.scale._logs
        self.scale = bank

    # ------------------------------------------------------------------
    # Core execution (beagleUpdatePartials)
    # ------------------------------------------------------------------
    def update_partials_set(self, operations: Sequence[Operation]) -> None:
        """Execute one *independent* operation set as a single launch.

        A one-operation set is the paper's serial baseline launch (its
        modified BEAGLE with multi-operation launches disabled, §VII-C).
        Only lower buffers may be destinations.

        Raises
        ------
        ValueError
            If the operations are not mutually independent — the caller
            (scheduler) must guarantee set independence, exactly as the
            BEAGLE library requires.
        """
        self._launch(operations, "kernel.batch", self._lower_rows)

    @property
    def workspace(self) -> Workspace:
        """The instance's batched-execution arena (created on first use
        by the backend's :meth:`~repro.beagle.backend.KernelBackend.create_workspace`)."""
        if self._workspace is None:
            self._workspace = self.backend.create_workspace(
                self.dtype,
                self.category_count,
                self.pattern_count,
                self.state_count,
            )
        return self._workspace

    def adopt_workspace(self, workspace: Workspace) -> None:
        """Execute through a shared :class:`Workspace` arena.

        The serving layer (:mod:`repro.serve.coalesce`) coalesces
        same-shaped requests from different tenants onto one arena so a
        batch of N instances allocates scratch once instead of N times.
        Sharing is safe because the arena is pure per-launch scratch:
        every launch first writes the rows it uses (gathers and matmuls
        all take ``out=``) before reading them, so no state survives
        between instances — results are bit-identical to running each
        instance on a private arena. The caller must serialise launches
        across adopters (one batch runs on one worker).

        Raises
        ------
        ValueError
            If the arena's dimensions do not match this instance's.
        """
        if not workspace.compatible_with(
            self.dtype,
            self.category_count,
            self.pattern_count,
            self.state_count,
        ):
            raise ValueError(
                "workspace dimensions "
                f"(dtype={workspace.dtype}, C={workspace.category_count}, "
                f"P={workspace.pattern_count}, S={workspace.state_count}) "
                "do not match instance "
                f"(dtype={np.dtype(self.dtype)}, C={self.category_count}, "
                f"P={self.pattern_count}, S={self.state_count})"
            )
        self._workspace = workspace

    def _launch(
        self, operations: Sequence[Operation], span: str, destinations: range
    ) -> None:
        """Validate one operation set and run it as one backend launch.

        ``destinations`` holds the bank rows the set may write. The
        launch goes to the instance's :attr:`backend`
        (:meth:`~repro.beagle.backend.KernelBackend.update_partials_batch`)
        and the execution counters stay here, so accounting is identical
        across backends. Every backend runs the set through the
        :class:`Workspace` arena — gathers, batched matmuls and the
        final scatter all write into preallocated buffers — so
        steady-state execution performs **zero per-set array
        allocations** and results are bit-identical however operations
        are grouped (the contract the byte golden and the partition
        properties check; see ``docs/BACKENDS.md``).
        """
        ops = list(operations)
        if not ops:
            return
        if not operations_independent(ops):
            raise ValueError("operation set contains internal dependencies")
        first = destinations.start + self.tip_count
        end = destinations.stop + self.tip_count
        for op in ops:
            if not first <= op.destination < end:
                raise IndexError(f"destination buffer {op.destination} out of range")
        k = len(ops)
        obs = get_recorder()
        if obs.enabled:
            # Observability bookkeeping sits behind one branch so the
            # disabled (null-recorder) path stays allocation-free.
            obs.count("repro_kernel_launches_total")
            obs.count("repro_operations_evaluated_total", k)
            obs.observe("repro_operations_per_set", k)
            with obs.span(span, category="kernel", operations=k):
                self.backend.update_partials_batch(self, ops)
        else:
            self.backend.update_partials_batch(self, ops)
        self.stats.kernel_launches += 1
        self.stats.operations += k
        self.stats.flops += k * self.flops_per_operation

    # ------------------------------------------------------------------
    # Likelihood reductions
    # ------------------------------------------------------------------
    def site_log_likelihoods(
        self,
        root_buffer: int,
        cumulative_scale_index: int = -1,
    ) -> np.ndarray:
        """Per-pattern log site likelihoods at the root buffer.

        ``log Σ_c w_c Σ_z π_z L_root[c,p,z] (+ scale_p)`` for every
        pattern ``p``, *without* the weight contraction — the surface the
        sharded engine (:mod:`repro.exec.sharding`) reduces through its
        deterministic summation tree. Always ``float64``, regardless of
        the instance dtype (log scalers stay double, as in BEAGLE).
        """
        partials, _ = self._child_arrays(root_buffer)
        if partials is None:
            raise ValueError("root buffer must hold partials, not tip codes")
        site = self.backend.root_reduce(
            partials, self._frequencies, self._category_weights
        )
        with np.errstate(divide="ignore"):
            logs = np.log(site)
        if cumulative_scale_index >= 0:
            logs = logs + self.scale.read(cumulative_scale_index)
        return np.asarray(logs, dtype=np.float64)

    def calculate_root_log_likelihood(
        self,
        root_buffer: int,
        cumulative_scale_index: int = -1,
    ) -> float:
        """Weighted log-likelihood at the root buffer.

        ``Σ_p w_p · (log Σ_c w_c Σ_z π_z L_root[c,p,z] + scale_p)``.
        """
        obs = get_recorder()
        with obs.span(
            "kernel.root", category="kernel", root_buffer=root_buffer
        ), obs.phase(PHASE_ROOT):
            logs = self.site_log_likelihoods(
                root_buffer, cumulative_scale_index
            )
            return float(np.dot(self._weights, logs))

    def calculate_edge_log_likelihood(
        self,
        parent_buffer: int,
        child_buffer: int,
        matrix_index: int,
        cumulative_scale_index: int = -1,
    ) -> float:
        """Log-likelihood across one edge (beagleCalculateEdgeLogLikelihoods).

        The tree is viewed as rooted on the edge between the two buffers;
        both partials are combined through the edge's transition matrix.
        """
        parent, parent_codes = self._child_arrays(parent_buffer)
        if parent is None:
            raise ValueError("parent buffer must hold partials")
        contribution = child_contribution(
            self._matrices[matrix_index], *self._child_arrays(child_buffer)
        )
        site = edge_site_likelihoods(
            parent, contribution, self._frequencies, self._category_weights
        )
        with np.errstate(divide="ignore"):
            logs = np.log(site)
        if cumulative_scale_index >= 0:
            logs = logs + self.scale.read(cumulative_scale_index)
        return float(np.dot(self._weights, logs))

    # ------------------------------------------------------------------
    def memory_footprint(self) -> dict:
        """Bytes held by each buffer class (the device-memory budget).

        The paper's device (Table I) pairs 3,584 cores with 16 GB of
        HBM2; partials dominate the budget at ``(n−1)·C·P·S`` floats, so
        this breakdown is what decides the largest tree×pattern problem a
        card can hold.
        """
        tips = sum(a.nbytes for a in self._tip_codes.values())
        tips += sum(a.nbytes for a in self._tip_partials.values())
        tips += self._tip_codes_dense.nbytes
        lower = self.partials_buffer_count * self._partials[0].nbytes
        return {
            "partials": int(lower),
            "upper_partials": int(self._partials.nbytes - lower),
            "matrices": int(self._matrices.nbytes),
            "tips": int(tips),
            "scale": int(self.scale._logs.nbytes),
            "total": int(
                self._partials.nbytes
                + self._matrices.nbytes
                + tips
                + self.scale._logs.nbytes
            ),
        }

    @property
    def flops_per_operation(self) -> int:
        """Effective FLOPs of one partial-likelihood operation."""
        return operation_flops(
            self.pattern_count, self.state_count, self.category_count
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BeagleInstance tips={self.tip_count} "
            f"partials={self.partials_buffer_count} p={self.pattern_count} "
            f"s={self.state_count} c={self.category_count}>"
        )
