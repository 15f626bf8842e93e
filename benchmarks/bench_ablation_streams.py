"""Ablation — multi-operation kernel vs CUDA-streams scheduling (§IV-B).

The paper's concurrency can be exploited through a single multi-operation
kernel launch per set, or by fanning each set's operations into CUDA
streams. Its reference [2] found the multi-op kernel superior; this
ablation reproduces that comparison under the device model: streams are
host-issue-bound, so the multi-op kernel wins everywhere and its
advantage grows with set size.
"""

from __future__ import annotations

import pytest
from conftest import emit

from repro.bench import format_table
from repro.core import make_plan, optimal_reroot_fast
from repro.gpu import GP100, WorkloadDims, price_launches, time_set_sizes
from repro.trees import balanced_tree, pectinate_tree, random_attachment_tree

DIMS = WorkloadDims(patterns=512, states=4)


def _launches(sizes):
    """One launch per operation set, every operation at ``DIMS``."""
    return [[(k, DIMS)] for k in sizes]


def test_multiop_vs_streams(benchmark, results_dir):
    cases = [
        ("balanced 64", balanced_tree(64)),
        ("balanced 256", balanced_tree(256)),
        ("random 256", random_attachment_tree(256, 1)),
        ("random 256 rerooted", optimal_reroot_fast(random_attachment_tree(256, 1)).tree),
        ("pectinate 64 rerooted", optimal_reroot_fast(pectinate_tree(64)).tree),
    ]
    rows = []
    for label, tree in cases:
        sizes = make_plan(tree).set_sizes
        multi = time_set_sizes(GP100, DIMS, sizes)
        serial = time_set_sizes(GP100, DIMS, [1] * sum(sizes))
        rows_for_streams = {}
        for n_streams in (2, 4, 8, 16):
            stream = price_launches(GP100, _launches(sizes), n_streams)
            rows_for_streams[n_streams] = stream.seconds
        best_stream = min(rows_for_streams.values())
        rows.append(
            {
                "case": label,
                "serial us": f"{serial.seconds * 1e6:.1f}",
                "multi-op us": f"{multi.seconds * 1e6:.1f}",
                "streams (best) us": f"{best_stream * 1e6:.1f}",
                "multi-op vs streams": f"{best_stream / multi.seconds:.2f}x",
            }
        )
        # [2]'s finding: the multi-op kernel is at least as good, and both
        # beat serial whenever there is any concurrency.
        assert multi.seconds <= best_stream + 1e-15
        if max(sizes) > 1:
            assert best_stream < serial.seconds

    emit(
        results_dir,
        "ablation_streams.md",
        format_table(
            rows, title="Ablation: multi-operation kernel vs streams (512 patterns)"
        ),
    )

    tree = balanced_tree(256)
    sizes = make_plan(tree).set_sizes
    benchmark(price_launches, GP100, _launches(sizes), 8)
