"""Kernel-backend conformance: contract, bit-identity, doc drift.

The engine's arithmetic is checked against :class:`FixedBlockBackend`
with its default block: one block covering each whole set, the
arithmetic of the set executor before any tiling or blocking."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.beagle import (
    BackendInfo,
    BlockedNumpyBackend,
    KernelBackend,
    Workspace,
)
from repro.beagle.backends import blocked
from repro.bench.harness import build_tree
from repro.core import (
    create_instance,
    execute_gradient_plan,
    execute_plan,
    make_gradient_plan,
    make_plan,
    optimal_reroot_fast,
)
from repro.data import AMINO_ACID, random_patterns
from repro.models import discrete_gamma, random_gtr, synthetic_empirical
from tests.partitioned import FixedBlockBackend

DOCS = Path(__file__).resolve().parents[2] / "docs" / "BACKENDS.md"


def _case(n_tips=12, n_patterns=40, seed=3):
    rng = np.random.default_rng(seed)
    tree = build_tree("random", n_tips, seed)
    for edge in tree.edges():
        edge.length = float(rng.exponential(0.1))
    model = random_gtr(rng)
    patterns = random_patterns(tree.tip_names(), n_patterns, rng=rng)
    return tree, model, patterns


def _loglik(backend, case, dtype=np.float64, mode="concurrent", scaling=False):
    tree, model, patterns = case
    instance = create_instance(
        tree, model, patterns, dtype=dtype, backend=backend, scaling=scaling
    )
    return execute_plan(instance, make_plan(tree, mode, scaling=scaling))


class TestBackendInfo:
    def test_bit_identical_requires_zero_tolerance(self):
        with pytest.raises(ValueError):
            BackendInfo(name="x", description="d", tolerance=1e-9)

    def test_unknown_parity_class_rejected(self):
        with pytest.raises(ValueError):
            BackendInfo(name="x", description="d", parity="close-enough")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            BackendInfo(
                name="x", description="d", parity="tolerance", tolerance=-1.0
            )


class TestProtocolConformance:
    @pytest.mark.parametrize(
        "backend", [BlockedNumpyBackend(), FixedBlockBackend()]
    )
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, KernelBackend)
        info = backend.info
        assert info.name and info.description and info.kind == "cpu"

    @pytest.mark.parametrize(
        "backend", [BlockedNumpyBackend(), FixedBlockBackend()]
    )
    def test_create_workspace_shape(self, backend):
        ws = backend.create_workspace(np.float64, 2, 16, 4)
        assert isinstance(ws, Workspace)
        assert ws.compatible_with(np.float64, 2, 16, 4)

    @pytest.mark.parametrize(
        "backend", [BlockedNumpyBackend(), FixedBlockBackend()]
    )
    def test_rescale_and_root_reduce_shapes(self, backend):
        rng = np.random.default_rng(0)
        partials = rng.uniform(0.1, 1.0, size=(2, 8, 4))
        logs = backend.rescale(partials)
        assert logs.shape == (8,)
        assert np.all(partials.max(axis=(0, 2)) <= 1.0 + 1e-12)
        freqs = np.full(4, 0.25)
        weights = np.full(2, 0.5)
        site = backend.root_reduce(partials, freqs, weights)
        assert site.shape == (8,)
        assert np.all(site > 0)


class TestBlockedBitIdentity:
    """The tentpole guarantee: blocking never changes a single bit."""

    @pytest.mark.parametrize("block", [1, 3, 8, 1024])
    def test_explicit_block_sizes(self, block):
        case = _case()
        expected = _loglik(FixedBlockBackend(), case)
        got = _loglik(FixedBlockBackend(block), case)
        assert got == expected  # exact, not approx

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_both_precisions(self, dtype):
        case = _case()
        expected = _loglik(FixedBlockBackend(), case, dtype=dtype)
        got = _loglik(BlockedNumpyBackend(), case, dtype=dtype)
        assert got == expected

    def test_with_scaling(self):
        case = _case()
        expected = _loglik(FixedBlockBackend(), case, scaling=True)
        got = _loglik(BlockedNumpyBackend(), case, scaling=True)
        assert got == expected

    def test_serial_mode(self):
        case = _case()
        expected = _loglik(FixedBlockBackend(), case, mode="serial")
        got = _loglik(BlockedNumpyBackend(), case, mode="serial")
        assert got == expected

    def test_auto_block_scales_with_row_size(self):
        wide = create_instance(*_case(n_tips=6, n_patterns=512))
        narrow = create_instance(*_case(n_tips=6, n_patterns=8))
        assert blocked.block_size(narrow) >= blocked.block_size(wide)
        assert 4 <= blocked.block_size(wide) <= 64
        assert blocked.tile_size(narrow) == 8  # never past the pattern count
        assert blocked.tile_size(wide) >= 64

    def test_sizes_follow_the_budget(self, monkeypatch):
        instance = create_instance(*_case(n_tips=6, n_patterns=512))
        monkeypatch.setattr(blocked, "CACHE_BUDGET_BYTES", 1)
        assert (blocked.block_size(instance), blocked.tile_size(instance)) == (4, 64)
        monkeypatch.setattr(blocked, "CACHE_BUDGET_BYTES", 1 << 40)
        assert (blocked.block_size(instance), blocked.tile_size(instance)) == (64, 512)


GAMMA = discrete_gamma(0.5, 4)


def _protein_case(topology, reroot, n_tips=12, n_patterns=613, seed=7):
    """20 states x 4 gamma categories: a pattern tile is 204 (f64) or 409
    (f32) patterns, so every narrow set runs in several tiles. One tip
    carries explicit partials and one has unknown characters, so every
    child kind takes part."""
    rng = np.random.default_rng(seed)
    tree = build_tree(topology, n_tips, seed)
    for edge in tree.edges():
        edge.length = float(rng.exponential(0.2))
    if reroot:
        tree = optimal_reroot_fast(tree).tree
    patterns = random_patterns(
        tree.tip_names(), n_patterns, alphabet=AMINO_ACID, rng=rng
    )
    patterns.codes[1, ::5] = AMINO_ACID.n_states
    patterns.partials[patterns.taxa[0]] = rng.uniform(size=(n_patterns, 20))
    return tree, synthetic_empirical(seed), patterns


def _engine_bytes(backend, case, dtype, mode, scaled):
    """logL and the bytes of every partials, scale-bank and upper buffer.

    Scaled cases run the rescaled post-order plan; unscaled ones the
    gradient sweep, whose pre-order pass fills the upper bank.
    """
    tree, model, patterns = case
    instance = create_instance(
        tree, model, patterns, rates=GAMMA, dtype=dtype, backend=backend,
        scaling=scaled,
    )
    assert blocked.tile_size(instance) < patterns.n_patterns
    if scaled:
        ll = execute_plan(instance, make_plan(tree, mode, scaling=True))
    else:
        ll = execute_gradient_plan(instance, make_gradient_plan(tree, mode))
    # The bank holds the lower rows, then (after a sweep) the upper rows.
    lower, valid = instance.partials_buffer_count, instance._partials_valid
    partials = instance._partials[:lower][valid[:lower]].tobytes()
    upper = instance._partials[lower:][valid[lower:]].tobytes()
    scales = [instance.scale.read(i).tobytes() for i in range(instance.scale.count)]
    return ll, partials, scales, upper


class TestBlockedMatchesReferenceByteForByte:
    """Every buffer the engine writes equals the one-block partition's."""

    @pytest.mark.parametrize("mode", ["concurrent", "serial"])
    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("reroot", [False, True], ids=["given", "rerooted"])
    @pytest.mark.parametrize("topology", ["pectinate", "random", "balanced"])
    def test_logl_partials_scale_and_upper_banks(
        self, topology, reroot, dtype, scaled, mode
    ):
        case = _protein_case(topology, reroot)
        expected = _engine_bytes(FixedBlockBackend(), case, dtype, mode, scaled)
        got = _engine_bytes(BlockedNumpyBackend(), case, dtype, mode, scaled)
        assert got[0] == expected[0]
        assert got[1] == expected[1], "partials differ"
        assert got[2] == expected[2], "scale bank differs"
        assert got[3] == expected[3], "upper bank differs"


def _launch_bytes(backend, case, dtype, split):
    """Partials and scale-bank bytes after running a scaled concurrent
    plan's sets whole, or each ``split`` into one-operation sets."""
    tree, model, patterns = case
    instance = create_instance(
        tree, model, patterns, rates=GAMMA, dtype=dtype, backend=backend,
        scaling=True,
    )
    plan = make_plan(tree, "concurrent", scaling=True)
    instance.update_transition_matrices(0, plan.matrix_indices, plan.branch_lengths)
    for op_set in plan.operation_sets:
        for launch in [[op] for op in op_set] if split else [op_set]:
            instance.update_partials_set(launch)
    partials = instance._partials[instance._partials_valid].tobytes()
    scales = [instance.scale.read(i).tobytes() for i in range(instance.scale.count)]
    return partials, scales


class TestSerialMatchesSetByteForByte:
    """Each set split into one-operation sets (the serial baseline and
    the resilience layer's degrade path; on ``blocked`` the pattern-tiled
    narrow kernel) computes exactly the bits of the whole set."""

    @pytest.mark.parametrize("backend", [FixedBlockBackend, BlockedNumpyBackend])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("reroot", [False, True], ids=["given", "rerooted"])
    @pytest.mark.parametrize("topology", ["pectinate", "random", "balanced"])
    def test_serial_launches_match_set_launches(self, topology, reroot, dtype, backend):
        case = _protein_case(topology, reroot)
        batched = _launch_bytes(backend(), case, dtype, split=False)
        serial = _launch_bytes(backend(), case, dtype, split=True)
        assert serial[0] == batched[0], "partials differ"
        assert serial[1] == batched[1], "scale bank differs"


class TestSharedArena:
    def test_arena_adoption_across_backends(self):
        """One arena may serve instances on different backends."""
        case = _case()
        expected = _loglik(FixedBlockBackend(), case)
        tree, model, patterns = case
        ref = create_instance(tree, model, patterns, backend=FixedBlockBackend())
        blk = create_instance(tree, model, patterns, backend="blocked")
        blk.adopt_workspace(ref.workspace)
        plan = make_plan(tree, "concurrent")
        assert execute_plan(ref, plan) == expected
        assert execute_plan(blk, plan) == expected


class TestBackendInfoMetric:
    def test_instance_records_backend_metric(self):
        from repro.obs import Recorder, set_recorder

        recorder = Recorder()
        previous = set_recorder(recorder)
        try:
            create_instance(*_case(n_tips=4, n_patterns=8), backend="blocked")
        finally:
            set_recorder(previous)
        text = recorder.metrics.to_prometheus()
        assert 'repro_backend_info{kind="cpu",name="blocked"' in text


class TestDocDrift:
    """docs/BACKENDS.md must describe the protocol actually shipped."""

    PROTOCOL_METHODS = [
        "create_workspace",
        "materialize_matrices",
        "update_partials_batch",
        "rescale",
        "root_reduce",
    ]

    def test_contract_doc_exists(self):
        assert DOCS.is_file(), "docs/BACKENDS.md is missing"

    def test_every_protocol_method_documented(self):
        text = DOCS.read_text()
        for method in self.PROTOCOL_METHODS:
            assert method in text, f"{method} missing from docs/BACKENDS.md"

    def test_protocol_has_no_undocumented_methods(self):
        public = [
            name
            for name in dir(KernelBackend)
            if not name.startswith("_") and name != "info"
        ]
        assert sorted(public) == sorted(self.PROTOCOL_METHODS)

    def test_doc_names_parity_classes_and_env(self):
        text = DOCS.read_text()
        for needle in ("bit-identical", "tolerance", "REPRO_BACKEND", "--rsrc"):
            assert needle in text
