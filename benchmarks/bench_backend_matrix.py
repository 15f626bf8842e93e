"""Backend matrix: the acceptance runs of the cache-blocked NumPy engine.

The engine cuts each operation set into cache-sized pieces; that is only
worth its code if it keeps every bit and is measurably faster than
running each set as one block, in both set-width regimes. This benchmark
runs two 256-taxon cases through the registered backend and through
``FixedBlockBackend()`` (one block covering each whole set, the
arithmetic before any tiling) and asserts:

* equal log-likelihoods on both cases, bit for bit;
* balanced / 1024 patterns, the wide-set regime, where the batch-axis
  blocks must reach >= 1.2x the one-block run;
* pectinate / 64 patterns, the narrow-set regime, where the pattern
  tiles must reach >= 1.5x.

It also calibrates a :class:`~repro.gpu.device.DeviceSpec` from the
engine's measured launch timings on the balanced case, so the GPU
simulator can price schedules off real numbers
(``repro.gpu.calibrate.fit_device_spec``).

Results land in ``bench_results/backend_matrix.md``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import emit

from repro.beagle import acquire, available_resources
from repro.bench import format_table
from repro.bench.harness import build_tree
from repro.core import create_instance, execute_plan, make_plan
from repro.data import random_patterns
from repro.gpu import WorkloadDims, fit_device_spec, time_set_sizes
from repro.models import random_gtr
from tests.partitioned import FixedBlockBackend

TAXA = 256
SEED = 1

#: (topology, patterns, minimum engine-over-one-block speedup). The
#: balanced tree has the widest operation sets (128 ops at the first
#: level), where blocking along the batch axis matters; the pectinate
#: tree has one or two operations per set, where only pattern tiles can
#: cut the working set.
CASES = [("balanced", 1024, 1.2), ("pectinate", 64, 1.5)]

ONE_BLOCK = "one block"


def acceptance_case(topology, sites):
    rng = np.random.default_rng(SEED)
    tree = build_tree(topology, TAXA, SEED)
    model = random_gtr(rng)
    patterns = random_patterns(tree.tip_names(), sites, rng=rng)
    return tree, model, patterns


def measure_interleaved(cases, plan, rounds=9):
    """Best-of timing per kernel, alternating kernels each round so
    thermal/scheduler drift hits every kernel equally."""
    best = {name: float("inf") for name in cases}
    for _ in range(rounds):
        for name, instance in cases.items():
            start = time.perf_counter()
            execute_plan(instance, plan, update_matrices=False)
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def test_backend_matrix(benchmark, results_dir):
    assert available_resources() == ["blocked"]
    engine = acquire("blocked")
    kernels = {ONE_BLOCK: FixedBlockBackend(), engine.info.name: engine}

    rows = []
    for topology, sites, gate in CASES:
        tree, model, patterns = acceptance_case(topology, sites)
        plan = make_plan(tree, "concurrent")
        loglik, cases = {}, {}
        for name, backend in kernels.items():
            instance = cases[name] = create_instance(
                tree, model, patterns, backend=backend
            )
            loglik[name] = execute_plan(instance, plan)  # warm-up; validates
        timings = measure_interleaved(cases, plan)
        for name in kernels:
            rows.append(
                {
                    "case": f"{topology}/{sites}",
                    "kernel": name,
                    "parity claim": engine.info.parity,
                    "logL == one block": loglik[name] == loglik[ONE_BLOCK],
                    "ms/eval": f"{timings[name] * 1e3:.2f}",
                    "speedup": f"{timings[ONE_BLOCK] / timings[name]:.2f}x",
                }
            )
            # Tiles and blocks must keep every bit on the acceptance
            # configurations themselves, not only the suites' smaller
            # cases.
            assert loglik[name] == loglik[ONE_BLOCK]
        speedup = timings[ONE_BLOCK] / timings[engine.info.name]
        assert speedup >= gate, (
            f"blocked speedup {speedup:.2f}x on {topology}/{sites} below "
            f"the {gate}x gate"
        )

    tree, model, patterns = acceptance_case("balanced", 1024)
    plan = make_plan(tree, "concurrent")
    # Calibrate a DeviceSpec from measured per-set timings: the
    # launch-cost line t = a + b*k fitted over single-launch probes.
    dims = WorkloadDims(patterns.n_patterns, model.n_states, 1)
    instance = create_instance(tree, model, patterns, backend=engine)
    execute_plan(instance, plan)  # warm buffers and matrices
    samples = []
    for op_set in plan.operation_sets:
        k = len(op_set)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            instance.update_partials_set(op_set)
            best = min(best, time.perf_counter() - start)
        samples.append((k, best))
    spec = fit_device_spec(f"measured:{engine.info.name}", dims, samples)
    widest = max(k for k, _ in samples)
    modelled = time_set_sizes(spec, dims, [widest]).seconds
    measured = min(t for k, t in samples if k == widest)
    calib_rows = [
        {
            "backend": engine.info.name,
            "launch overhead (us)": f"{spec.launch_overhead_s * 1e6:.1f}",
            "per-op slope (us)": f"{spec.wave_time_s * 1e6:.2f}",
            f"model@k={widest} (us)": f"{modelled * 1e6:.1f}",
            f"measured@k={widest} (us)": f"{measured * 1e6:.1f}",
        }
    ]
    # The calibrated spec must price the measured points sanely.
    assert modelled == pytest.approx(measured, rel=0.5)

    text = format_table(
        rows, title=f"Backend matrix: {TAXA}-OTU trees, engine vs one block"
    )
    text += "\n" + format_table(
        calib_rows,
        title="Calibrated DeviceSpec (t = a + b*k fit, balanced/1024)",
    )
    emit(results_dir, "backend_matrix.md", text)

    execute_plan(instance, plan)
    benchmark(execute_plan, instance, plan, update_matrices=False)
