"""Engine-level tests for the pre-order upper-partial bank.

The load-bearing parity fact: after one ``execute_gradient_plan`` sweep,
the upper buffer of every non-root node holds, bit for bit, the far-side
half-tree partials that a per-edge rerooted evaluation computes for that
branch — across every bit-identical backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.beagle import Operation
from repro.beagle.resources import list_resources, resolve_backend
from repro.core import (
    execute_gradient_plan,
    execute_plan,
    make_gradient_plan,
    make_plan,
)
from repro.core.planner import create_instance
from repro.data import compress, simulate_alignment
from repro.inference import DerivativeSession, canonical_edges
from repro.models import HKY85
from repro.trees import balanced_tree, pectinate_tree, yule_tree
from repro.trees.reroot import reroot_above
from tests.partitioned import FixedBlockBackend

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


def sweep_instance(tree, patterns, backend=None, dtype=np.float64):
    instance = create_instance(
        tree, MODEL, patterns, dtype=dtype, backend=backend
    )
    gplan = make_gradient_plan(tree)
    execute_gradient_plan(instance, gplan)
    return instance


def make_patterns(tree, n_sites=32, seed=4):
    return compress(simulate_alignment(tree, MODEL, n_sites, seed=seed))


class TestUpperBankLifecycle:
    def test_enable_is_idempotent(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        instance.enable_upper_partials()
        bank = instance._partials
        instance.enable_upper_partials()
        assert instance._partials is bank

    def test_enable_keeps_lower_rows_and_validity(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        execute_plan(instance, make_plan(tree))
        lower = instance.partials_buffer_count
        before = instance._partials.copy(), instance._partials_valid.copy()
        instance.enable_upper_partials()
        assert instance._partials.shape[0] == lower + instance.upper_base
        assert instance._partials[:lower].tobytes() == before[0].tobytes()
        assert np.array_equal(instance._partials_valid[:lower], before[1])
        assert not instance._partials_valid[lower:].any()

    def test_lower_launch_cannot_write_upper_buffer(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        instance.update_transition_matrices(0, [0, 1], [0.1, 0.1])
        instance.enable_upper_partials()
        with pytest.raises(IndexError, match="out of range"):
            instance.update_partials_set([Operation(instance.upper_base, 0, 0, 1, 1)])

    def test_upper_launch_cannot_write_lower_buffer(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        instance.enable_upper_partials()
        with pytest.raises(IndexError, match="out of range"):
            instance.update_upper_partials_set(
                [Operation(instance.tip_count, 0, 0, 1, 1)]
            )

    def test_seed_outside_upper_buffers_raises(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        with pytest.raises(ValueError, match="not enabled"):
            instance.seed_upper_partials(instance.upper_base, 0)
        instance.enable_upper_partials()
        with pytest.raises(IndexError, match="out of range"):
            instance.seed_upper_partials(instance.tip_count, 0)

    def test_read_before_enable_raises(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        with pytest.raises(ValueError, match="not enabled"):
            instance.upper_partials(0)

    def test_read_before_compute_raises(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        instance.enable_upper_partials()
        with pytest.raises(ValueError, match="read before being computed"):
            instance.upper_partials(0)

    def test_out_of_range_raises(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        instance.enable_upper_partials()
        with pytest.raises(IndexError, match="out of range"):
            instance.upper_partials(instance.upper_base)

    def test_invalidate_forces_recompute(self):
        tree = balanced_tree(4, branch_length=0.1)
        patterns = make_patterns(tree)
        instance = sweep_instance(tree, patterns)
        instance.upper_partials(0)  # computed
        instance.invalidate_partials()
        with pytest.raises(ValueError, match="read before being computed"):
            instance.upper_partials(0)

    def test_dependent_set_rejected(self):
        tree = pectinate_tree(6, branch_length=0.1)
        patterns = make_patterns(tree)
        instance = create_instance(tree, MODEL, patterns)
        instance.enable_upper_partials()
        gplan = make_gradient_plan(tree, "serial")
        chained = [s[0] for s in gplan.upper_operation_sets]
        # A pectinate pre-order pass is a strict chain: flattening it
        # into one launch is exactly the hazard the guard must catch.
        if len(chained) > 1:
            with pytest.raises(ValueError, match="internal dependencies"):
                instance.update_upper_partials_set(chained)

    def test_upper_ops_require_enabled_bank(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        gplan = make_gradient_plan(tree)
        with pytest.raises(ValueError, match="not enabled"):
            instance.update_upper_partials_set(gplan.upper_operation_sets[0])


class TestUpperEqualsRerootedFarSide:
    @pytest.mark.parametrize(
        "tree",
        [
            balanced_tree(8, branch_length=0.15),
            pectinate_tree(7, branch_length=0.1),
        ],
        ids=["balanced", "pectinate"],
    )
    def test_bitwise_equal_to_oracle_half_tree(self, tree):
        patterns = make_patterns(tree)
        instance = sweep_instance(tree, patterns)
        session = DerivativeSession(MODEL, patterns)
        for edge in canonical_edges(tree):
            rerooted = reroot_above(tree, edge, fraction=0.0)
            _, V, _ = session.half_tree_partials(rerooted)
            upper = instance.upper_partials(tree.index_of(edge))
            assert np.array_equal(upper, V), edge.name or "internal"

    def test_float32_bank_dtype(self):
        tree = balanced_tree(4, branch_length=0.1)
        patterns = make_patterns(tree)
        instance = sweep_instance(tree, patterns, dtype=np.float32)
        assert instance.upper_partials(0).dtype == np.float32


class TestBackendBitIdentity:
    @pytest.mark.parametrize("backend", ["blocked"])
    def test_upper_bank_matches_reference(self, backend):
        tree = yule_tree(9, np.random.default_rng(6))
        patterns = make_patterns(tree)
        ref = sweep_instance(tree, patterns, backend=FixedBlockBackend())
        alt = sweep_instance(tree, patterns, backend=backend)
        for node in tree.root.traverse_postorder():
            if node.parent is None or node is tree.root.children[1]:
                continue
            index = tree.index_of(node)
            assert np.array_equal(
                ref.upper_partials(index), alt.upper_partials(index)
            )

    def test_sweep_never_touches_scale_bank(self):
        # The gradient engine runs unscaled, like the per-edge oracle;
        # rescaling an upper destination would silently break parity.
        tree = balanced_tree(8, branch_length=0.1)
        patterns = make_patterns(tree)
        instance = sweep_instance(tree, patterns)
        assert instance.scale.count == 0


class TestBlockedResource:
    def test_registered_and_bit_identical(self):
        names = [d.name for d in list_resources()]
        assert names == ["blocked"]
        backend = resolve_backend("blocked")
        assert backend.info.parity == "bit-identical"
        assert backend.info.tolerance == 0.0
        assert backend.info.kind == "cpu"
