"""Unit and integration tests for execution planning and the engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.beagle import pruning_log_likelihood
from repro.core import (
    count_operation_sets,
    create_instance,
    execute_plan,
    make_gradient_plan,
    make_plan,
)
from repro.data import compress, random_patterns, simulate_alignment
from repro.models import HKY85, JC69, discrete_gamma
from repro.trees import (
    Tree,
    balanced_tree,
    parse_newick,
    pectinate_tree,
    random_attachment_tree,
)
from tests.strategies import tree_strategy


@pytest.fixture
def model():
    return HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


class TestMakePlan:
    def test_serial_one_op_per_launch(self):
        t = balanced_tree(8)
        plan = make_plan(t, "serial")
        assert plan.n_launches == 7
        assert plan.set_sizes == [1] * 7

    def test_concurrent_matches_count(self):
        t = balanced_tree(8)
        plan = make_plan(t, "concurrent")
        assert plan.n_launches == count_operation_sets(t)
        assert plan.set_sizes == [4, 2, 1]

    def test_level_mode(self):
        t = pectinate_tree(8)
        plan = make_plan(t, "level")
        assert plan.n_launches == 7  # pectinate: level == serial depth

    def test_operations_preserved_across_modes(self):
        t = balanced_tree(16)
        serial = make_plan(t, "serial")
        conc = make_plan(t, "concurrent")
        assert serial.n_operations == conc.n_operations == 15

    def test_rejects_multifurcation(self):
        with pytest.raises(ValueError):
            make_plan(parse_newick("(a,b,c);"))

    def test_rejects_single_tip(self):
        with pytest.raises(ValueError):
            make_plan(parse_newick("a;"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_plan(balanced_tree(4), "warp")

    def test_root_buffer(self):
        t = balanced_tree(4)
        plan = make_plan(t)
        assert plan.root_buffer == t.index_of(t.root)


class TestCreateInstance:
    def test_requires_matching_taxa(self, model):
        t = balanced_tree(4)
        patterns = random_patterns(["x", "y", "z", "w"], 8)
        with pytest.raises(ValueError):
            create_instance(t, model, patterns)

    def test_dimensions(self, model):
        t = balanced_tree(6)
        patterns = random_patterns(t.tip_names(), 32)
        inst = create_instance(t, model, patterns, rates=discrete_gamma(0.5, 4))
        assert inst.tip_count == 6
        assert inst.pattern_count == 32
        assert inst.category_count == 4

    def test_scaling_buffers(self, model):
        t = balanced_tree(4)
        patterns = random_patterns(t.tip_names(), 8)
        inst = create_instance(t, model, patterns, scaling=True)
        assert inst.scale.count == 4


class TestEngineCorrectness:
    """The engine must agree with the independent pruning reference."""

    @given(tree_strategy(min_tips=2, max_tips=20))
    @settings(max_examples=20)
    def test_matches_pruning_reference(self, tree):
        model = JC69()
        aln = simulate_alignment(tree, model, 20, seed=11)
        patterns = compress(aln)
        inst = create_instance(tree, model, patterns)
        ll = execute_plan(inst, make_plan(tree, "concurrent"))
        assert ll == pytest.approx(
            pruning_log_likelihood(tree, model, patterns), abs=1e-8
        )

    @given(tree_strategy(min_tips=2, max_tips=15))
    @settings(max_examples=15)
    def test_all_modes_agree(self, tree):
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        aln = simulate_alignment(tree, model, 15, seed=12)
        patterns = compress(aln)
        values = []
        for mode in ("serial", "concurrent", "level"):
            inst = create_instance(tree, model, patterns)
            values.append(execute_plan(inst, make_plan(tree, mode)))
        assert values[0] == pytest.approx(values[1], abs=1e-10)
        assert values[0] == pytest.approx(values[2], abs=1e-10)

    def test_gamma_rates_match_reference(self, model):
        tree = balanced_tree(6, branch_length=0.3)
        aln = simulate_alignment(tree, model, 25, seed=13)
        patterns = compress(aln)
        rates = discrete_gamma(0.4, 4)
        inst = create_instance(tree, model, patterns, rates=rates)
        ll = execute_plan(inst, make_plan(tree))
        assert ll == pytest.approx(
            pruning_log_likelihood(tree, model, patterns, rates), abs=1e-8
        )

    def test_scaling_does_not_change_loglik(self, model):
        tree = pectinate_tree(12, branch_length=0.2)
        aln = simulate_alignment(tree, model, 16, seed=14)
        patterns = compress(aln)
        plain = execute_plan(
            create_instance(tree, model, patterns), make_plan(tree)
        )
        scaled = execute_plan(
            create_instance(tree, model, patterns, scaling=True),
            make_plan(tree, scaling=True),
        )
        assert scaled == pytest.approx(plain, abs=1e-9)

    def test_scaling_rescues_underflow(self, model):
        # Deep pectinate tree with many patterns: unscaled partials
        # underflow double precision; scaled evaluation must stay finite
        # and match the log-space reference.
        tree = pectinate_tree(600, branch_length=0.5)
        patterns = random_patterns(tree.tip_names(), 4, seed=5)
        scaled = execute_plan(
            create_instance(tree, model, patterns, scaling=True),
            make_plan(tree, scaling=True),
        )
        assert np.isfinite(scaled)
        unscaled = execute_plan(
            create_instance(tree, model, patterns), make_plan(tree)
        )
        assert unscaled == -np.inf  # demonstrates the underflow scaling fixes

    def test_stats_launch_counts(self, model):
        tree = pectinate_tree(10)
        patterns = random_patterns(tree.tip_names(), 8, seed=6)
        inst = create_instance(tree, model, patterns)
        execute_plan(inst, make_plan(tree, "serial"))
        assert inst.stats.kernel_launches == 9
        inst.stats.reset()
        execute_plan(inst, make_plan(tree, "concurrent"))
        assert inst.stats.kernel_launches == count_operation_sets(tree)

    def test_repeated_execution_consistent(self, model):
        tree = balanced_tree(8)
        patterns = random_patterns(tree.tip_names(), 8, seed=7)
        inst = create_instance(tree, model, patterns)
        plan = make_plan(tree)
        first = execute_plan(inst, plan)
        second = execute_plan(inst, plan)
        assert first == second


class TestPlanBuildCost:
    """``Tree.n_tips`` walks the whole tree, so plan builders must read it
    a constant number of times per build, not once per operation."""

    @staticmethod
    def tip_count_reads(monkeypatch, build, n_tips):
        tree = random_attachment_tree(n_tips, 1)
        reads = []
        walk = Tree.n_tips.fget
        monkeypatch.setattr(
            Tree, "n_tips", property(lambda self: reads.append(1) or walk(self))
        )
        build(tree)
        monkeypatch.undo()
        return len(reads)

    @pytest.mark.parametrize(
        "build",
        [
            lambda tree: make_plan(tree, scaling=True),
            lambda tree: make_plan(tree, "level", scaling=True),
            lambda tree: make_plan(tree, "serial", scaling=True),
            make_gradient_plan,
        ],
        ids=["scaled", "scaled-level", "scaled-serial", "gradient"],
    )
    def test_tip_count_read_constant_times(self, monkeypatch, build):
        small = self.tip_count_reads(monkeypatch, build, 16)
        large = self.tip_count_reads(monkeypatch, build, 128)
        assert small == large
