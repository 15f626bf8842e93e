"""Tables I & II — system specification and test-program parameters.

Table I lists the paper's benchmark system; our stand-in is the GP100
``DeviceSpec`` (plus the analytical-model calibration constants, which
have no counterpart on real hardware). Table II lists the
``synthetictest`` options; we verify our CLI exposes every one and emit
the two tables as artefacts.
"""

from __future__ import annotations

from conftest import emit

from repro.bench import format_table
from repro.bench.synthetictest import build_parser
from repro.gpu import GP100, WorkloadDims, time_set_sizes


TABLE2_OPTIONS = [
    ("--rsrc", "selects the hardware resource"),
    ("--taxa", "sets the number of taxa or OTUs"),
    ("--sites", "sets the number of site patterns"),
    ("--reps", "sets the number of calculation repetitions"),
    ("--full-timing", "enables detailed timing output"),
    ("--manualscale", "enables application-managed rescaling"),
    ("--rescale-frequency", "sets rescaling-factor recomputation frequency"),
    ("--pectinate", "sets tree topology type to pectinate"),
    ("--randomtree", "sets tree topology type to arbitrary"),
    ("--reroot", "enables optimal rerooting of tree"),
    ("--seed", "sets the random seed"),
]


def test_table1_device_spec(benchmark, results_dir):
    rows = [
        {"field": "GPU", "value": GP100.name},
        {"field": "CUDA cores", "value": GP100.cuda_cores},
        {"field": "memory bandwidth (GB/s)", "value": GP100.memory_bandwidth_gbs},
        {"field": "threads/core (model)", "value": GP100.threads_per_core},
        {"field": "launch overhead (us, model)", "value": GP100.launch_overhead_s * 1e6},
        {"field": "wave time (us, model)", "value": GP100.wave_time_s * 1e6},
        {"field": "per-op overhead (us, model)", "value": GP100.per_op_overhead_s * 1e6},
    ]
    text = format_table(rows, title="Table I: simulated system specification")
    emit(results_dir, "table1_device.md", text)

    assert GP100.cuda_cores == 3584  # Table I
    assert GP100.memory_bandwidth_gbs == 720.0

    dims = WorkloadDims(512, 4)
    timing = benchmark(time_set_sizes, GP100, dims, [16])
    assert timing.launches[0].n_waves >= 1


def test_table2_cli_options(benchmark, results_dir):
    parser = build_parser()
    known = {
        option
        for action in parser._actions
        for option in action.option_strings
    }
    rows = []
    for option, description in TABLE2_OPTIONS:
        assert option in known, f"missing synthetictest option {option}"
        rows.append({"option": option, "description": description, "present": True})
    text = format_table(rows, title="Table II: synthetictest options coverage")
    emit(results_dir, "table2_cli.md", text)

    benchmark(build_parser)
