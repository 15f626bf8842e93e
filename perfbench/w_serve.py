"""Workload ``serve``: an open-loop trace into the likelihood server.

Sixteen tenants each own a fixed 48-taxon, 128-pattern random-tree
dataset. One generator thread replays a seeded Poisson trace into a
``LikelihoodServer`` over a threaded two-worker ``LikelihoodPool``
(coalescing on, a fixed deadline per request): first a steady phase at
about half the seed capacity, then an overload phase at about twice it.
The generator submits every request that is due, runs one serving cycle
while anything is queued, and otherwise sleeps until the next arrival.
Latency is timed from each request's due time, so a generator held up
by a serving cycle charges that wait to the requests it delays; how late
the generator ran is reported too.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.beagle import reference
from repro.core import planner
from repro.data import patterns as data_patterns
from repro.exec import pool as exec_pool
from repro.models import nucleotide
from repro.serve import admission as serve_admission
from repro.serve import coalesce, request as serve_request
from repro.serve import ledger as serve_ledger
from repro.serve import server as serve_server
from repro.trees import generate

from common import Result, latency_metrics, normalise, peak_rss_mb, repeat_setup
from layers import install_engine_layers, install_serving_layers, per_call, per_unit
from spans import SpanRecorder, summarize
from speed import SpeedProbe
from stats import SloTally, latency_from_due

__all__ = ["run", "make_trace"]

TENANTS = 16
TAXA = 48
PATTERNS = 128
WORKERS = 2
COALESCE_WIDTH = 4
DEADLINE_S = 0.25
#: Arrival rates (1/s) of the two phases. At the benchmark's first
#: commit the server completes ~120 requests/s when saturated, so these
#: are about a fifth and twice that. Nearer half the capacity the
#: steady phase already queues behind serving cycles and its latency
#: stops repeating from run to run.
STEADY_RATE = 25.0
OVERLOAD_RATE = 240.0
SETUP_REPEATS = 9
#: Shortest idle gap, in seconds, the replay spends on speed bursts.
PROBE_GAP_S = 0.01
DATASET_SEED = 48128
#: Tolerance of a tenant's engine reference against the pruning oracle.
REL_TOL = 1e-11


def make_trace(seed: int, seconds: float) -> List[tuple]:
    """``(at, tenant, phase)`` arrivals: steady for the first half of
    ``seconds``, overload for the second; a pure function of the seed."""
    rng = np.random.default_rng([seed, 5])
    arrivals = []
    half = seconds / 2.0
    for phase, rate, lo in (("steady", STEADY_RATE, 0.0),
                            ("overload", OVERLOAD_RATE, half)):
        at = lo + rng.exponential(1.0 / rate)
        while at < lo + half:
            arrivals.append((at, int(rng.integers(TENANTS)), phase))
            at += rng.exponential(1.0 / rate)
    return arrivals


def make_tenants():
    """Per tenant: tree, model and patterns (program-free).

    The tenants' datasets are fixed; ``--seed`` draws the arrivals. Each
    tenant serves one dataset, so the per-request cost does not vary
    with the seed and the trace alone decides the load.
    """
    tenants = []
    for t in range(TENANTS):
        rng = np.random.default_rng([DATASET_SEED, t])
        tree = generate.random_attachment_tree(TAXA, rng)
        for edge in tree.edges():
            edge.length = float(rng.exponential(0.1))
        model = nucleotide.random_gtr(rng)
        pats = data_patterns.random_patterns(tree.tip_names(), PATTERNS, rng=rng)
        tenants.append((tree, model, pats))
    return tenants


class Service:
    """Server, pool and per-tenant plans built by one set-up."""

    def __init__(self, tenants, seed: int) -> None:
        self.tenants = tenants
        self.plans = [planner.make_plan(tree, "concurrent") for tree, _, _ in tenants]
        self.pool = exec_pool.LikelihoodPool(WORKERS, executor="thread")
        self.server = serve_server.LikelihoodServer(
            self.pool,
            coalesce=coalesce.CoalescePolicy(max_width=COALESCE_WIDTH),
            jitter_seed=seed,
        )
        self.dims = serve_request.RequestDims(state_count=4, pattern_count=PATTERNS)
        self.recorder: Optional[SpanRecorder] = None
        # Warm-up: one evaluation per tenant through the pool.
        for tenant in range(TENANTS):
            self.pool.submit_case(self.make_case(tenant, f"warm-{tenant}"))
        self.warm_values = [o.value for o in self.pool.drain()]

    def make_case(self, tenant: int, unit: str):
        """The request's ``(instance, plan)`` factory, run on a worker."""
        tree, model, pats = self.tenants[tenant]
        plan = self.plans[tenant]

        def build():
            if self.recorder is not None:
                self.recorder.set_unit(unit)
            return planner.create_instance(tree, model, pats), plan

        return build


def check_references(service: Service, result: Result) -> List[float]:
    """Tenant references: the warm-up values, checked against the oracle."""
    for tenant, (tree, model, pats) in enumerate(service.tenants):
        want = reference.pruning_log_likelihood(tree, model, pats)
        got = service.warm_values[tenant]
        result.attempted += 1
        if not (got is not None and abs(got - want) <= REL_TOL * abs(want)):
            result.fail(f"tenant {tenant}: engine {got!r} vs oracle {want!r}")
    return service.warm_values


class Replay:
    """One pass of the trace through a service, with its accounting."""

    def __init__(self, service: Service, references: List[float]) -> None:
        self.service = service
        self.references = references
        self.tally = SloTally(DEADLINE_S)
        self.steady_latency: List[float] = []
        #: Completion times (monotonic seconds) of served requests.
        self.completed_at: List[float] = []
        self.base = 0.0
        self.lag: List[float] = []
        self.widths: List[int] = []
        self.outcomes = 0
        self.rejections = 0
        self.step_s = 0.0

    def run(self, trace, result: Result,
            probe: Optional[SpeedProbe] = None) -> float:
        """Replay ``trace``; returns the wall seconds of the replay.

        With a ``probe``, idle gaps of more than ``PROBE_GAP_S`` before
        the next arrival start with a speed sample.
        """
        server = self.service.server
        meta: Dict[int, tuple] = {}
        clock = time.monotonic
        base = self.base = clock()
        i = 0
        while i < len(trace) or server.pending:
            now = clock()
            while i < len(trace) and base + trace[i][0] <= now:
                at, tenant, phase = trace[i]
                due = base + at
                submitted = clock()
                self.lag.append(submitted - due)
                result.attempted += 1
                if self.service.recorder is not None:
                    self.service.recorder.set_unit(f"req-{i}")
                try:
                    index = server.submit(
                        f"t{tenant}",
                        self.service.make_case(tenant, f"req-{i}"),
                        label=f"req-{i}",
                        deadline_s=DEADLINE_S,
                        dims=self.service.dims,
                    )
                except serve_admission.ServerSaturatedError:
                    self.rejections += 1
                    self.tally.record(phase, "rejected")
                else:
                    meta[index] = (tenant, phase, due, submitted)
                if self.service.recorder is not None:
                    self.service.recorder.set_unit(None)
                i += 1
            if server.pending:
                t0 = clock()
                outcomes = server.step()
                self.step_s += clock() - t0
                for outcome in outcomes:
                    self.account(outcome, meta.pop(outcome.index), result)
            elif i < len(trace):
                if probe is not None and base + trace[i][0] - clock() > PROBE_GAP_S:
                    probe.sample()
                time.sleep(max(0.0, base + trace[i][0] - clock()))
        if meta:
            result.checks_ok = False
            result.notes.append(f"error: {len(meta)} admitted requests never ended")
        return clock() - base

    def account(self, outcome, meta, result: Result) -> None:
        """Check one terminal outcome and count it against the SLO."""
        tenant, phase, due, submitted = meta
        self.outcomes += 1
        if outcome.status == serve_request.SERVED:
            latency = latency_from_due(due, submitted, outcome.wait_s)
            self.tally.record(phase, "served", latency)
            self.widths.append(outcome.coalesced_width)
            self.completed_at.append(due + latency)
            if phase == "steady":
                self.steady_latency.append(latency)
            if outcome.value != self.references[tenant]:
                result.fail(f"{outcome.label}: {outcome.value!r} != "
                            f"reference {self.references[tenant]!r}")
        elif outcome.status == serve_request.SHED:
            self.tally.record(phase, "shed")
        else:
            self.tally.record(phase, "failed")
            result.fail(f"{outcome.label} failed: {outcome.error!r}")

    def check_ledgers(self, result: Result) -> None:
        """Server and pool ledgers close and every offer is accounted."""
        ledger = self.service.server.ledger
        problems = list(ledger.imbalances()) + list(self.service.pool.stats().imbalances())
        if not ledger.drained():
            problems.append("server not drained")
        if self.outcomes + self.rejections != ledger.offered:
            problems.append(f"{ledger.offered} offered but {self.outcomes} "
                            f"outcomes + {self.rejections} rejections")
        for problem in problems:
            result.checks_ok = False
            result.notes.append(f"error: ledger: {problem}")


def run(seed: int, seconds: int, trace: bool) -> Result:
    """One run of the serve workload."""
    result = Result()
    # The pool starts and joins its worker threads every cycle.
    probe = SpeedProbe(threads=True)
    tenants = make_tenants()
    service, setup_s = repeat_setup(
        lambda: Service(tenants, seed), SETUP_REPEATS, probe
    )
    references = check_references(service, result)
    arrivals = make_trace(seed, seconds)
    replay = Replay(service, references)
    replay.run(arrivals, result, probe)
    replay.check_ledgers(result)

    half = seconds / 2.0
    window = (replay.base + half, replay.base + seconds)
    values: Dict[str, float] = {
        "setup_s": setup_s,
        # Saturated throughput: completions inside the overload window.
        # Goodput (within the deadline) is reported per layer; how much
        # of the saturated work ends late swings from run to run.
        "throughput_per_s": sum(
            window[0] <= t < window[1] for t in replay.completed_at) / half,
        "serve.goodput_per_s": replay.tally.good(["overload"]) / half,
        "peak_rss_mb": peak_rss_mb(),
    }
    latency_metrics(replay.steady_latency, values)
    normalise(values, probe, SETUP_REPEATS, result)
    values.update(_counts(service, replay))
    result.notes.append(
        f"serve: {len(arrivals)} offered, outcomes by phase "
        f"{replay.tally.counts}, generator lag "
        f"{values['serve.generator_lag_ms']:.2f} ms mean"
    )
    if trace:
        _traced(seed, tenants, references, arrivals, replay, values, result)
    values["error_share"] = result.failed / result.attempted
    result.metrics = values
    return result


def _counts(service: Service, replay: Replay) -> Dict[str, float]:
    """Ledger and pool counts of one pass (no spans needed)."""
    ledger = service.server.ledger
    stats = service.pool.stats()
    values = {
        "serve.slo_miss_share": replay.tally.miss_share(),
        "serve.late": ledger.late,
        "serve.generator_lag_ms": sum(replay.lag) / len(replay.lag) * 1e3,
        "serve.coalesced_width_mean": (
            sum(replay.widths) / len(replay.widths) if replay.widths else 0.0
        ),
        "exec.retries": stats.faults.retried,
        "exec.failovers": stats.rerouted,
    }
    for cause in (serve_ledger.SHED_EXPIRED, serve_ledger.SHED_BROWNOUT):
        values[f"serve.shed.{cause}"] = ledger.shed_by_cause.get(cause, 0)
    for reason in (serve_ledger.REJECT_QUEUE_FULL, serve_ledger.REJECT_TENANT_QUOTA,
                   serve_ledger.REJECT_INFEASIBLE, serve_ledger.REJECT_BROWNOUT):
        values[f"serve.rejected.{reason}"] = ledger.rejected_by_reason.get(reason, 0)
    return values


def _traced(seed, tenants, references, arrivals, untraced, values, result) -> None:
    """Replay the same trace through a fresh, fully wrapped service."""
    service = Service(tenants, seed)
    recorder = SpanRecorder()
    install_engine_layers(recorder)
    install_serving_layers(recorder, service.server, service.pool)
    service.recorder = recorder
    try:
        replay = Replay(service, references)
        replay.run(arrivals, result)
    finally:
        recorder.restore()
        service.recorder = None
    replay.check_ledgers(result)

    spans = recorder.spans
    totals = summarize(spans)
    dispatched = service.server.ledger.admitted
    values["serve.submit_us"] = per_call(totals, "serve.submit", 1e6)
    values["serve.step_self_ms"] = per_unit(totals, "serve.step", dispatched)
    values["exec.pool_ms"] = per_unit(totals, "exec.drain", dispatched, inclusive=True)
    drain_s = totals["exec.drain"].total
    by_id = {s.span_id: s for s in spans}
    drains = {s.span_id for s in spans if s.name == "exec.drain"}
    # Worker-thread spans whose parent is a drain: the jobs and the
    # instance builds the workers ran while the drain waited.
    busy = sum(s.duration for s in spans if s.parent in drains
               and s.thread != by_id[s.parent].thread)
    values["exec.worker_busy_share"] = busy / (drain_s * WORKERS) if drain_s else 0.0
    values["beagle.create_instance_ms"] = per_call(totals, "beagle.create_instance")
    served = max(1, service.server.ledger.served)
    values["beagle.partials_ms"] = per_unit(totals, "beagle.partials", served)
    values["beagle.matrices_ms"] = per_unit(totals, "beagle.matrices", served)
    values["beagle.root_ms"] = per_unit(totals, "beagle.root", served)
    values["beagle.eval_unattributed_ms"] = per_unit(totals, "core.execute_plan", served)
    values["obs.trace_overhead_share"] = replay.step_s / untraced.step_s - 1.0
    # Unattributed: serving-cycle time outside every wrapped call.
    step = totals["serve.step"]
    values["obs.unattributed_share"] = step.self / step.total
    result.notes.append(
        f"layers per request (ms): step self {values['serve.step_self_ms']:.3f}, "
        f"pool {values['exec.pool_ms']:.3f}, create_instance "
        f"{values['beagle.create_instance_ms']:.3f}, partials "
        f"{values['beagle.partials_ms']:.3f}; worker busy share "
        f"{values['exec.worker_busy_share']:.3f}"
    )
    result.spans = spans
