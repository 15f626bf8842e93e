"""The benchmark's metric names and units: the contract later changes cite.

``BENCHMARK.json`` lists the same metrics; the self-tests check that the
two agree. Every workload reports every metric of the list its run mode
asks for. A per-layer metric a workload does not exercise reads 0 (no
calls, no time); see ``README.md`` for what each one measures and which
end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["END_TO_END", "PER_LAYER", "WORKLOADS", "emit"]

WORKLOADS: List[Tuple[str, str]] = [
    ("eval-narrow",
     "256-taxon ensemble at 64 patterns, as given and rerooted: per-launch "
     "dispatch dominates, so fewer operation sets show directly"),
    ("eval-wide",
     "random 256-taxon trees at 1024 patterns x 4 categories with rescaling: "
     "arithmetic and memory traffic dominate; the only scaling workload"),
    ("inference",
     "128-taxon MCMC chain of in-place branch and NNI proposals plus "
     "periodic all-branch gradients: incremental plans, matrix cache, upper bank"),
    ("serve",
     "open-loop Poisson trace from 16 tenants into a coalescing server on a "
     "threaded 2-worker pool, at a fifth then twice its saturated capacity"),
]

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

#: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("error_share", "share", "lower"),
    ("env.speed_factor", "x", "lower"),
    ("raw.setup_s", "s", "lower"),
    ("raw.throughput_per_s", "1/s", "higher"),
    ("raw.latency_ms_p50", "ms", "lower"),
    ("e2e.latency_ms_tail", "ms", "lower"),
    ("e2e.tail_percentile", "pct", "higher"),
    ("e2e.samples", "count", "higher"),
    ("core.plan_ms", "ms", "lower"),
    ("core.reroot_ms", "ms", "lower"),
    ("core.incremental_plan_ms", "ms", "lower"),
    ("core.gradient_plan_ms", "ms", "lower"),
    ("core.launches_per_eval.as_given", "count", "lower"),
    ("core.launches_per_eval.rerooted", "count", "lower"),
    ("core.ops_per_eval.as_given", "count", "lower"),
    ("core.ops_per_eval.rerooted", "count", "lower"),
    ("core.reroot_speedup", "x", "higher"),
    ("eval.as_given_per_s", "1/s", "higher"),
    ("eval.rerooted_per_s", "1/s", "higher"),
    ("beagle.partials_ms", "ms", "lower"),
    ("beagle.partials_us_per_launch", "us", "lower"),
    ("beagle.partials_us_per_op", "us", "lower"),
    ("beagle.matrices_ms", "ms", "lower"),
    ("beagle.root_ms", "ms", "lower"),
    ("beagle.scale_ms", "ms", "lower"),
    ("beagle.eval_unattributed_ms", "ms", "lower"),
    ("beagle.flops_per_eval", "flop", "lower"),
    ("beagle.bytes_computed_per_eval", "B", "lower"),
    ("beagle.gflops_achieved", "GFLOP/s", "higher"),
    ("beagle.matrix_cache_hit_ratio", "share", "higher"),
    ("beagle.launches_per_proposal", "count", "lower"),
    ("beagle.create_instance_ms", "ms", "lower"),
    ("beagle.sweep_ms", "ms", "lower"),
    ("beagle.upper_ms", "ms", "lower"),
    ("inference.propose_ms", "ms", "lower"),
    ("inference.accept_ms", "ms", "lower"),
    ("inference.reject_ms", "ms", "lower"),
    ("inference.accept_ratio", "share", "higher"),
    ("inference.recombine_ms", "ms", "lower"),
    ("inference.proposals_per_s", "1/s", "higher"),
    ("inference.gradients_per_s", "1/s", "higher"),
    ("serve.submit_us", "us", "lower"),
    ("serve.step_self_ms", "ms", "lower"),
    ("serve.coalesced_width_mean", "count", "higher"),
    ("serve.shed.expired", "count", "lower"),
    ("serve.shed.brownout", "count", "lower"),
    ("serve.rejected.queue-full", "count", "lower"),
    ("serve.rejected.tenant-quota", "count", "lower"),
    ("serve.rejected.infeasible-deadline", "count", "lower"),
    ("serve.rejected.brownout-clamp", "count", "lower"),
    ("serve.late", "count", "lower"),
    ("serve.generator_lag_ms", "ms", "lower"),
    ("serve.goodput_per_s", "1/s", "higher"),
    ("serve.slo_miss_share", "share", "lower"),
    ("exec.pool_ms", "ms", "lower"),
    ("exec.worker_busy_share", "share", "higher"),
    ("exec.retries", "count", "lower"),
    ("exec.failovers", "count", "lower"),
    ("gpu.model_us_per_eval", "us", "lower"),
    ("gpu.model_reroot_speedup", "x", "higher"),
    ("gpu.realised_share", "share", "higher"),
    ("obs.trace_overhead_share", "share", "lower"),
    ("obs.unattributed_share", "share", "lower"),
]


def emit(values: Dict[str, float], trace: bool) -> Dict[str, Dict[str, object]]:
    """The result's ``metrics`` object for one run mode.

    ``values`` may hold metrics of both lists; only the mode's list is
    emitted. End-to-end metrics must all be present; per-layer metrics a
    workload did not produce read 0. Names in neither list are an
    error, so a typo cannot silently drop a metric.
    """
    catalog = [(n, u) for n, u, *_ in (PER_LAYER if trace else END_TO_END)]
    known = {n for n, *_ in END_TO_END} | {n for n, *_ in PER_LAYER}
    unknown = sorted(set(values) - known)
    if unknown:
        raise KeyError(f"metrics not in the catalog: {unknown}")
    out: Dict[str, Dict[str, object]] = {}
    for name, unit in catalog:
        if name not in values:
            if not trace:
                raise KeyError(f"end-to-end metric {name} was not measured")
            value = 0.0
        else:
            value = float(values[name])
        out[name] = {"value": value, "unit": unit}
    return out
