"""Workloads ``eval-narrow`` and ``eval-wide``: whole-tree evaluations.

A seeded 256-taxon ensemble (one pectinate tree, then random-attachment
trees) is evaluated as given and after ``optimal_reroot_fast``. Set-up
builds every plan and engine instance; each timed evaluation is one
``execute_plan`` with transition matrices recomputed, as ``synthetictest``
runs it. ``eval-narrow`` uses 64 patterns, one rate category and no
scaling, so per-launch dispatch dominates and the operation-set count
shows directly. ``eval-wide`` takes the random trees only, at 1024
patterns with four discrete-gamma categories and rescaling on every
evaluation, so arithmetic and memory traffic dominate.

Both run a fixed number of rounds (every case once per round), scaled
by ``--seconds``, so two commits do identical work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.beagle import reference
from repro.core import bounds, planner, reroot_opt
from repro.data import patterns as data_patterns
from repro.gpu import GP100, SimulatedDevice
from repro.gpu.perfmodel import WorkloadDims
from repro.models import discrete_gamma, nucleotide
from repro.trees import generate

from common import Result, latency_metrics, normalise, peak_rss_mb, repeat_setup
from layers import install_engine_layers, per_call, per_unit
from spans import SpanRecorder, summarize
from speed import SpeedProbe
from stats import median

__all__ = ["NARROW", "WIDE", "EvalConfig", "run"]

TAXA = 256
#: Random trees in the ensemble. Their operation-set counts vary by about
#: 20 % from tree to tree, so the narrow workload averages over many of
#: them; the wide one keeps the first few (each case holds ~50 MB).
RANDOM_TREES = 15
WIDE_RANDOM_TREES = 3
#: Relative tolerance of engine vs. the independent pruning oracle, and
#: of a rerooted value vs. its as-given tree (different summation order).
REL_TOL = 1e-11


@dataclass(frozen=True)
class EvalConfig:
    """Shape of one evaluation workload."""

    name: str
    patterns: int
    categories: int
    scaling: bool
    pectinate: bool
    #: Rounds per second of ``--seconds`` (fixed work, calibrated so a
    #: round set takes about ``--seconds`` at the benchmark's first commit).
    rounds_per_second: float
    setup_repeats: int


NARROW = EvalConfig("eval-narrow", 64, 1, False, True, 6.0, 5)
WIDE = EvalConfig("eval-wide", 1024, 4, True, False, 1.0, 3)


@dataclass
class Case:
    """One tree in one rooting, with its plan and engine instance."""

    label: str
    rerooted: bool
    tree: object
    plan: object
    instance: object
    value: float = 0.0
    times: List[float] = field(default_factory=list)


def make_inputs(seed: int, config: EvalConfig):
    """Trees, model, patterns and rates for one seed (program-free)."""
    tree_rng = np.random.default_rng([seed, 1])
    trees = [("pectinate", generate.pectinate_tree(TAXA))]
    trees += [
        (f"random{i}", generate.random_attachment_tree(TAXA, tree_rng))
        for i in range(RANDOM_TREES)
    ]
    for _, tree in trees:
        for edge in tree.edges():
            edge.length = float(tree_rng.exponential(0.1))
    if not config.pectinate:
        trees = trees[1:1 + WIDE_RANDOM_TREES]
    data_rng = np.random.default_rng([seed, 2, config.patterns])
    model = nucleotide.random_gtr(data_rng)
    pats = data_patterns.random_patterns(
        trees[0][1].tip_names(), config.patterns, rng=data_rng
    )
    rates = discrete_gamma(0.5, config.categories) if config.categories > 1 else None
    return trees, model, pats, rates


def build_cases(trees, model, pats, rates, config: EvalConfig) -> List[Case]:
    """Set-up: reroot, plan, create and warm one instance per case."""
    cases = []
    for label, tree in trees:
        rerooted = reroot_opt.optimal_reroot_fast(tree).tree
        for is_rerooted, t in ((False, tree), (True, rerooted)):
            plan = planner.make_plan(t, "concurrent", scaling=config.scaling)
            instance = planner.create_instance(
                t, model, pats, rates=rates, scaling=config.scaling
            )
            case = Case(label, is_rerooted, t, plan, instance)
            case.value = planner.execute_plan(instance, plan)
            cases.append(case)
    return cases


def check_cases(cases: List[Case], model, pats, rates, config, result: Result) -> None:
    """Each tree once against the pruning oracle; rerooted vs. as given."""
    given: Dict[str, float] = {}
    for case in cases:
        if case.rerooted:
            continue
        want = reference.pruning_log_likelihood(
            case.tree, model, pats, rates, rescaled=config.scaling
        )
        given[case.label] = case.value
        result.attempted += 1
        if not abs(case.value - want) <= REL_TOL * abs(want):
            result.fail(f"{case.label}: engine {case.value!r} vs oracle {want!r}")
    for case in cases:
        if case.rerooted:
            want = given[case.label]
            result.attempted += 1
            if not abs(case.value - want) <= REL_TOL * abs(want):
                result.fail(
                    f"{case.label}: rerooted {case.value!r} vs as given {want!r}"
                )


def evaluate_rounds(
    cases: List[Case], rounds: int, result: Result,
    recorder: Optional[SpanRecorder] = None,
    probe: Optional[SpeedProbe] = None,
) -> List[float]:
    """Evaluate every case once per round; returns each round's seconds.

    Every repeat must reproduce the case's first value exactly.
    """
    for case in cases:
        case.times = []
    unit = 0
    round_s = []
    for _ in range(rounds):
        round_start = time.perf_counter()
        for case in cases:
            t0 = time.perf_counter()
            if recorder is None:
                value = planner.execute_plan(case.instance, case.plan)
            else:
                value = recorder.call(
                    "bench.eval", planner.execute_plan,
                    (case.instance, case.plan), unit=f"eval-{unit}",
                )
            case.times.append(time.perf_counter() - t0)
            unit += 1
            result.attempted += 1
            if value != case.value:
                result.fail(f"{case.label}: repeat {value!r} != {case.value!r}")
        round_s.append(time.perf_counter() - round_start)
        if probe is not None:
            probe.sample()
    return round_s


def _rates_split(cases: List[Case]) -> Dict[str, float]:
    """As-given vs. rerooted evaluation rates from the cases' timings."""
    given = sum(sum(c.times) for c in cases if not c.rerooted)
    rerooted = sum(sum(c.times) for c in cases if c.rerooted)
    n_given = sum(len(c.times) for c in cases if not c.rerooted)
    n_rerooted = sum(len(c.times) for c in cases if c.rerooted)
    return {
        "eval.as_given_per_s": n_given / given,
        "eval.rerooted_per_s": n_rerooted / rerooted,
        # Equal evaluation counts per rooting, so this is a time ratio.
        "core.reroot_speedup": given / rerooted,
    }


def _static_metrics(cases: List[Case], config: EvalConfig):
    """Exact plan counts and device-model counterparts (repeat run to run),
    and the ensemble's theoretical reroot speedup."""
    values: Dict[str, float] = {}
    device = SimulatedDevice(GP100)
    dims = WorkloadDims(config.patterns, 4, config.categories)
    model_us = {False: 0.0, True: 0.0}
    sets = {False: 0.0, True: 0.0}
    for rerooted, key in ((False, "as_given"), (True, "rerooted")):
        group = [c for c in cases if c.rerooted == rerooted]
        values[f"core.launches_per_eval.{key}"] = (
            sum(c.plan.n_launches for c in group) / len(group)
        )
        values[f"core.ops_per_eval.{key}"] = (
            sum(c.plan.n_operations for c in group) / len(group)
        )
        for c in group:
            model_us[rerooted] += device.time_plan(c.plan, dims).seconds * 1e6
            # (n - 1) / tree_theoretical_speedup is the tree's set count.
            sets[rerooted] += (TAXA - 1) / bounds.tree_theoretical_speedup(c.tree)
    values["gpu.model_us_per_eval"] = sum(model_us.values()) / len(cases)
    values["gpu.model_reroot_speedup"] = model_us[False] / model_us[True]
    ops = sum(c.plan.n_operations for c in cases) / len(cases)
    item = 8
    per_op = (3 * config.categories * config.patterns * 4
              + 2 * config.categories * 4 * 4) * item
    values["beagle.bytes_computed_per_eval"] = ops * per_op
    return values, sets[False] / sets[True]


def run(config: EvalConfig, seed: int, seconds: int, trace: bool) -> Result:
    """One run of an evaluation workload."""
    result = Result()
    # Rescaled wide evaluations are arithmetic-bound; see speed.py.
    probe = SpeedProbe(interpreter=not config.scaling)
    trees, model, pats, rates = make_inputs(seed, config)
    cases, setup_s = repeat_setup(
        lambda: build_cases(trees, model, pats, rates, config),
        config.setup_repeats, probe,
    )
    check_cases(cases, model, pats, rates, config, result)
    rounds = max(1, round(config.rounds_per_second * seconds))
    values: Dict[str, float] = {"setup_s": setup_s}

    flops0 = sum(c.instance.stats.flops for c in cases)
    round_s = evaluate_rounds(cases, rounds, result, probe=probe)
    flops = sum(c.instance.stats.flops for c in cases) - flops0
    samples = [t for c in cases for t in c.times]
    # Median round: a burst of load from elsewhere on the machine moves
    # a few rounds, not the median.
    values["throughput_per_s"] = len(cases) / median(round_s)
    latency_metrics(samples, values)
    values.update(_rates_split(cases))
    values["peak_rss_mb"] = peak_rss_mb()
    normalise(values, probe, config.setup_repeats, result)
    result.notes.append(
        f"{config.name}: {len(cases)} cases x {rounds} rounds, "
        f"reroot speedup {values['core.reroot_speedup']:.3f}x measured"
    )
    if trace:
        _traced(config, cases, rounds, samples, flops / len(samples), values,
                result, trees, model, pats, rates)
    values["error_share"] = result.failed / result.attempted
    result.metrics = values
    return result


def _traced(config, cases, rounds, untraced_samples, flops_per_eval, values,
            result, trees, model, pats, rates) -> None:
    """The traced pass and the per-layer metrics derived from it."""
    static, theoretical = _static_metrics(cases, config)
    values.update(static)
    values["gpu.realised_share"] = values["core.reroot_speedup"] / theoretical

    recorder = SpanRecorder()
    install_engine_layers(recorder)
    try:
        # One traced set-up shows plan and reroot costs per call; one
        # tree at a time, so only one tree's instances are alive.
        for tree in trees:
            build_cases([tree], model, pats, rates, config)
        setup_spans = recorder.spans
        recorder.spans = []
        evaluate_rounds(cases, rounds, result, recorder)
        eval_spans = recorder.spans
        twin_ms = None
        if config.scaling:
            # The set kernel rescales inline, inside update_partials_set.
            # The same trees' unscaled plans on the same instances give
            # the partials time without it; the difference is scaling.
            recorder.spans = []
            twin_rounds = max(1, rounds // 4)
            twins = [
                (c.instance, planner.make_plan(c.tree, "concurrent", scaling=False))
                for c in cases
            ]
            for _ in range(twin_rounds):
                for twin in twins:
                    recorder.call("bench.eval", planner.execute_plan, twin)
            twin_ms = per_unit(summarize(recorder.spans), "beagle.partials",
                               twin_rounds * len(twins))
    finally:
        recorder.restore()

    setup = summarize(setup_spans)
    values["core.plan_ms"] = per_call(setup, "core.make_plan")
    values["core.reroot_ms"] = per_call(setup, "core.reroot")
    values["beagle.create_instance_ms"] = per_call(setup, "beagle.create_instance")

    totals = summarize(eval_spans)
    n = len(untraced_samples)
    launches = sum(c.plan.n_launches for c in cases) * rounds
    ops = sum(c.plan.n_operations for c in cases) * rounds
    partials_s = totals["beagle.partials"].self
    values["beagle.partials_ms"] = per_unit(totals, "beagle.partials", n)
    values["beagle.partials_us_per_launch"] = partials_s / launches * 1e6
    values["beagle.partials_us_per_op"] = partials_s / ops * 1e6
    values["beagle.matrices_ms"] = per_unit(totals, "beagle.matrices", n)
    values["beagle.root_ms"] = per_unit(totals, "beagle.root", n)
    values["beagle.eval_unattributed_ms"] = per_unit(totals, "core.execute_plan", n)
    scale_ms = per_unit(totals, "beagle.scale", n)
    if twin_ms is not None:
        scale_ms += max(values["beagle.partials_ms"] - twin_ms, 0.0)
    values["beagle.scale_ms"] = scale_ms
    values["beagle.flops_per_eval"] = flops_per_eval
    values["beagle.gflops_achieved"] = (
        flops_per_eval / (values["beagle.partials_ms"] / 1e3) / 1e9
    )
    root = totals["bench.eval"]
    values["obs.trace_overhead_share"] = root.total / sum(untraced_samples) - 1.0
    values["obs.unattributed_share"] = root.self / root.total
    result.notes.append(
        "layers per evaluation (ms): "
        + ", ".join(
            f"{k.split('.', 1)[1]} {values[k]:.3f}"
            for k in ("beagle.partials_ms", "beagle.matrices_ms",
                      "beagle.root_ms", "beagle.scale_ms",
                      "beagle.eval_unattributed_ms")
        )
        + f"; unattributed share {values['obs.unattributed_share']:.4f}"
    )
    result.spans = setup_spans + eval_spans
