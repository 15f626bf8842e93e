"""Backend parity as property tests: any plan, any partition, same bits.

The engine cuts operation sets into cache-sized pieces; that is only
safe if the cut is unobservable in the results. These tests drive
randomized trees, precisions and scheduling modes through **every**
registered backend and hold each to its declared parity class against
one block covering each whole set (``FixedBlockBackend()``):
bit-identical backends must reproduce its log-likelihood exactly;
tolerance backends must stay within their declared bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beagle import PARITY_BIT_IDENTICAL, acquire, available_resources
from repro.core import (
    create_instance,
    execute_plan,
    make_plan,
    optimal_reroot_fast,
)
from repro.data import compress, simulate_alignment
from repro.exec.sharding import ShardedLikelihood
from repro.inference import TreeLikelihood
from repro.inference.proposals import branch_length_move
from repro.models import HKY85
from tests.partitioned import FixedBlockBackend
from tests.strategies import tree_strategy

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])

#: Every set as one block: the arithmetic the engine's tiles and
#: batch-axis blocks must reproduce.
ONE_BLOCK = FixedBlockBackend()


def _patterns(tree, seed):
    return compress(simulate_alignment(tree, MODEL, 16, seed=seed))


def _plan_ll(tree, patterns, backend, dtype, mode):
    instance = create_instance(
        tree, MODEL, patterns, dtype=dtype, backend=backend
    )
    return execute_plan(instance, make_plan(tree, mode))


class TestAllRegisteredBackends:
    @given(
        tree_strategy(min_tips=3, max_tips=12),
        st.integers(0, 10**6),
        st.sampled_from([np.float64, np.float32]),
        st.booleans(),
    )
    @settings(max_examples=20)
    def test_every_backend_honours_its_parity_class(
        self, tree, seed, dtype, reroot
    ):
        patterns = _patterns(tree, seed)
        if reroot:
            tree = optimal_reroot_fast(tree).tree
        expected = _plan_ll(tree, patterns, ONE_BLOCK, dtype, "concurrent")
        for name in available_resources():
            backend = acquire(name)
            got = _plan_ll(tree, patterns, backend, dtype, "concurrent")
            if backend.info.parity == PARITY_BIT_IDENTICAL:
                assert got == expected, (name, dtype)
            else:
                assert abs(got - expected) <= backend.info.tolerance, name

    @given(tree_strategy(min_tips=3, max_tips=10), st.integers(0, 10**6))
    @settings(max_examples=10)
    def test_serial_and_concurrent_agree_per_backend(self, tree, seed):
        patterns = _patterns(tree, seed)
        for name in available_resources():
            serial = _plan_ll(tree, patterns, name, np.float64, "serial")
            batched = _plan_ll(tree, patterns, name, np.float64, "concurrent")
            assert serial == batched, name


class TestBlockedBeyondFullTraversals:
    """The blocked backend on the engine's stateful paths, next to the
    set executor over fixed partitions of every size: the property the
    blocked backend's dimension-chosen blocks rely on."""

    @given(
        tree_strategy(min_tips=4, max_tips=12),
        st.integers(0, 10**6),
        st.integers(1, 12),
    )
    @settings(max_examples=15)
    def test_incremental_path_bit_identical(self, tree, seed, block):
        patterns = _patterns(tree, seed)
        values = []
        for backend in (ONE_BLOCK, "blocked", FixedBlockBackend(block)):
            lik = TreeLikelihood(
                tree.copy(), MODEL, patterns, backend=backend
            )
            lik.log_likelihood()
            move = branch_length_move(lik.tree, np.random.default_rng(seed))
            proposed = lik.propose(move)
            lik.accept()
            values.append((proposed, lik.log_likelihood()))
        assert values[0] == values[1] == values[2]

    @given(
        tree_strategy(min_tips=4, max_tips=12),
        st.integers(0, 10**6),
        st.integers(2, 4),
    )
    @settings(max_examples=10)
    def test_sharded_path_bit_identical(self, tree, seed, n_shards):
        patterns = _patterns(tree, seed)
        expected = ShardedLikelihood(
            tree, MODEL, patterns, n_shards=n_shards, backend=ONE_BLOCK
        ).log_likelihood()
        got = ShardedLikelihood(
            tree, MODEL, patterns, n_shards=n_shards, backend="blocked"
        ).log_likelihood()
        assert got == expected

    @given(st.integers(1, 40))
    @settings(max_examples=20)
    def test_any_block_size_matches_reference(self, block):
        # A fixed wide case (many same-depth operations) so block
        # boundaries actually land inside operation sets.
        from repro.bench.harness import build_tree

        tree = build_tree("balanced", 16, 1)
        patterns = _patterns(tree, 5)
        expected = _plan_ll(
            tree, patterns, ONE_BLOCK, np.float64, "concurrent"
        )
        got = _plan_ll(
            tree, patterns, FixedBlockBackend(block), np.float64, "concurrent"
        )
        assert got == expected
