"""Workload ``inference``: an MCMC chain with periodic all-branch gradients.

A closed-loop Metropolis chain on a fixed 128-taxon random start tree,
with 256 sites simulated on that tree from the seed and the
transition-matrix cache on. In-place branch-length and NNI moves
alternate (two branch moves, then one NNI) through
``TreeLikelihood.propose`` and then ``accept`` or ``reject``; each
proposal builds a dirty-path plan and snapshots or restores engine
state. Every ``GRADIENT_EVERY`` proposals one ``all_branch_derivatives``
runs on a copy of the current tree. The chain length is fixed (scaled
by ``--seconds``) and the chain is a pure function of the seed, so two
commits do identical work.

The start tree and model are fixed, and the data are simulated on them,
because a proposal's cost follows the depth of its dirty path: the depth
of random-attachment trees varies widely from tree to tree, and on
uninformative data the chain's accepted NNIs random-walk the topology.
The seed draws the sites and the chain's moves. Two branch moves per
NNI keep the median proposal inside one mode of the two-mode cost
distribution instead of on the boundary between the modes.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

import numpy as np

from repro.data import patterns as data_patterns
from repro.data import simulate as data_simulate
from repro.inference import derivatives, likelihood, proposals
from repro.models import nucleotide
from repro.trees import generate

from common import Result, latency_metrics, normalise, peak_rss_mb, repeat_setup
from layers import install_engine_layers, per_call, per_unit
from spans import SpanRecorder, summarize
from speed import SpeedProbe
from stats import median

__all__ = ["run"]

TAXA = 128
SITES = 256
GRADIENT_EVERY = 50
#: Proposals per second of ``--seconds`` (fixed work, calibrated so the
#: chain takes about ``--seconds`` at the benchmark's first commit).
PROPOSALS_PER_SECOND = 320
SETUP_REPEATS = 15
DATASET_SEED = 128256


def make_inputs(seed: int):
    """Fixed start tree and model; sites simulated on them from the seed."""
    fixed = np.random.default_rng(DATASET_SEED)
    tree = generate.random_attachment_tree(TAXA, fixed)
    for edge in tree.edges():
        edge.length = float(fixed.exponential(0.1))
    model = nucleotide.random_gtr(fixed)
    rng = np.random.default_rng([seed, 3])
    alignment = data_simulate.simulate_alignment(tree, model, SITES, rng=rng)
    pats = data_patterns.compress(alignment)
    return tree, model, pats


def start_chain(tree, model, pats):
    """Set-up: the chain's evaluator and its first full evaluation."""
    chain = likelihood.TreeLikelihood(tree.copy(), model, pats, matrix_cache=True)
    return chain, chain.log_likelihood()


def check_gradient_oracle(tree, model, pats, result: Result) -> None:
    """One gradient, every branch, against the per-edge rerooted oracle."""
    gradient = derivatives.all_branch_derivatives(tree.copy(), model, pats)
    session = derivatives.DerivativeSession(model, pats)
    for edge, got in zip(gradient.edges, gradient.derivatives):
        want = derivatives.edge_log_likelihood_derivatives(
            gradient.tree, model, pats, edge, session=session
        )
        result.attempted += 1
        if got != want:
            result.fail(f"gradient edge {gradient.tree.index_of(edge)}: "
                        f"{got} != oracle {want}")


class Chain:
    """The Metropolis chain, its timings and its correctness tallies."""

    def __init__(self, evaluator, log_l: float, model, pats, seed: int) -> None:
        self.evaluator = evaluator
        self.log_l = log_l
        self.model = model
        self.pats = pats
        self.rng = np.random.default_rng([seed, 4])
        self.proposal_s: List[float] = []
        self.gradient_s: List[float] = []
        #: Seconds of each block of GRADIENT_EVERY proposals plus its gradient.
        self.block_s: List[float] = []
        self.accepted = 0

    @property
    def busy_s(self) -> float:
        """Seconds spent in proposals and gradients (speed samples excluded)."""
        return sum(self.proposal_s) + sum(self.gradient_s)

    def step(self, i: int) -> None:
        """One proposal: move, dirty-path evaluation, accept or reject."""
        tree = self.evaluator.tree
        if i % 3 < 2:
            move = proposals.branch_length_move(tree, self.rng)
        else:
            move = proposals.nni_move(tree, self.rng)
        proposed = self.evaluator.propose(move)
        log_alpha = proposed - self.log_l + move.log_hastings
        if math.log(self.rng.random()) < log_alpha:
            self.evaluator.accept()
            self.log_l = proposed
            self.accepted += 1
        else:
            self.evaluator.reject()

    def gradient(self, result: Result):
        """All-branch gradient of a copy of the current tree."""
        copy = self.evaluator.tree.copy()
        t0 = time.perf_counter()
        gradient = derivatives.all_branch_derivatives(copy, self.model, self.pats)
        self.gradient_s.append(time.perf_counter() - t0)
        result.attempted += 1
        if gradient.log_likelihood != self.log_l:
            result.fail(f"gradient logL {gradient.log_likelihood!r} != "
                        f"chain logL {self.log_l!r}")

    def run(self, n: int, result: Result,
            recorder: Optional[SpanRecorder] = None,
            probe: Optional[SpeedProbe] = None) -> float:
        """``n`` proposals with a gradient every ``GRADIENT_EVERY``."""
        start = block_start = time.perf_counter()
        for i in range(n):
            t0 = time.perf_counter()
            if recorder is None:
                self.step(i)
            else:
                recorder.call("bench.proposal", self.step, (i,), unit=f"prop-{i}")
            self.proposal_s.append(time.perf_counter() - t0)
            result.attempted += 1
            if (i + 1) % GRADIENT_EVERY == 0:
                if recorder is None:
                    self.gradient(result)
                else:
                    recorder.call("bench.gradient", self.gradient, (result,),
                                  unit=f"grad-{i}")
                self.block_s.append(time.perf_counter() - block_start)
                if probe is not None:
                    probe.sample()
                block_start = time.perf_counter()
        return time.perf_counter() - start


def finish_check(chain: Chain, model, pats, result: Result) -> None:
    """The final chain logL must equal a fresh full evaluation exactly."""
    fresh = likelihood.TreeLikelihood(chain.evaluator.tree.copy(), model, pats)
    value = fresh.log_likelihood()
    result.attempted += 1
    if value != chain.log_l:
        result.fail(f"final chain logL {chain.log_l!r} != fresh {value!r}")
    result.notes.append(f"inference: final logL checksum {chain.log_l!r}")


def run(seed: int, seconds: int, trace: bool) -> Result:
    """One run of the inference workload."""
    result = Result()
    probe = SpeedProbe()
    tree, model, pats = make_inputs(seed)
    (evaluator, log_l), setup_s = repeat_setup(
        lambda: start_chain(tree, model, pats), SETUP_REPEATS, probe
    )
    check_gradient_oracle(tree, model, pats, result)
    n = GRADIENT_EVERY * max(1, round(PROPOSALS_PER_SECOND * seconds / GRADIENT_EVERY))
    chain = Chain(evaluator, log_l, model, pats, seed)
    stats = evaluator.instance.stats
    launches0, ops0, flops0 = stats.kernel_launches, stats.operations, stats.flops
    wall = chain.run(n, result, probe=probe)
    launches = stats.kernel_launches - launches0
    finish_check(chain, model, pats, result)

    values: Dict[str, float] = {
        "setup_s": setup_s,
        # Median block: a burst of load from elsewhere on the machine
        # moves a few blocks, not the median.
        "throughput_per_s": GRADIENT_EVERY / median(chain.block_s),
        "peak_rss_mb": peak_rss_mb(),
        "inference.proposals_per_s": n / sum(chain.proposal_s),
        "inference.gradients_per_s": len(chain.gradient_s) / sum(chain.gradient_s),
        "inference.accept_ratio": chain.accepted / n,
        "beagle.matrix_cache_hit_ratio": evaluator.matrix_cache.hit_rate,
        "beagle.launches_per_proposal": launches / n,
        "beagle.flops_per_eval": (stats.flops - flops0) / n,
    }
    latency_metrics(chain.proposal_s, values)
    normalise(values, probe, SETUP_REPEATS, result)
    result.notes.append(
        f"inference: {n} proposals ({chain.accepted} accepted), "
        f"{len(chain.gradient_s)} gradients in {wall:.2f} s"
    )
    if trace:
        _traced(seed, n, tree, model, pats, chain.busy_s, stats.operations - ops0,
                values, result)
    values["error_share"] = result.failed / result.attempted
    result.metrics = values
    return result


def _traced(seed, n, tree, model, pats, untraced_busy, ops, values,
            result) -> None:
    """Replay the same chain with every layer wrapped."""
    recorder = SpanRecorder()
    install_engine_layers(recorder)
    try:
        evaluator, log_l = recorder.call("bench.setup", start_chain, (tree, model, pats))
        chain = Chain(evaluator, log_l, model, pats, seed)
        chain.run(n, result, recorder)
    finally:
        recorder.restore()
    finish_check(chain, model, pats, result)

    spans = recorder.spans
    props = summarize([s for s in spans if (s.unit or "").startswith("prop-")])
    grads = summarize([s for s in spans if (s.unit or "").startswith("grad-")])
    g = len(chain.gradient_s)
    values["core.incremental_plan_ms"] = per_unit(props, "core.incremental_plan", n, inclusive=True)
    for kind in ("propose", "accept", "reject"):
        values[f"inference.{kind}_ms"] = per_call(props, f"inference.{kind}")
    values["beagle.partials_ms"] = per_unit(props, "beagle.partials", n)
    launches = values["beagle.launches_per_proposal"] * n
    values["beagle.partials_us_per_launch"] = (
        props["beagle.partials"].self / launches * 1e6 if launches else 0.0
    )
    values["beagle.partials_us_per_op"] = (
        props["beagle.partials"].self / ops * 1e6 if ops else 0.0
    )
    values["beagle.matrices_ms"] = per_unit(props, "beagle.matrices", n)
    values["beagle.root_ms"] = per_unit(props, "beagle.root", n)
    values["beagle.eval_unattributed_ms"] = per_unit(props, "core.execute_plan", n)
    values["core.gradient_plan_ms"] = per_unit(grads, "core.gradient_plan", g, inclusive=True)
    values["beagle.sweep_ms"] = per_unit(grads, "beagle.sweep", g, inclusive=True)
    values["beagle.upper_ms"] = per_unit(grads, "beagle.upper", g)
    values["inference.recombine_ms"] = per_unit(grads, "inference.gradient", g)
    values["beagle.create_instance_ms"] = per_call(grads, "beagle.create_instance")
    roots = [t for t in (props.get("bench.proposal"), grads.get("bench.gradient")) if t]
    total = sum(t.total for t in roots)
    values["obs.trace_overhead_share"] = chain.busy_s / untraced_busy - 1.0
    values["obs.unattributed_share"] = sum(t.self for t in roots) / total
    result.notes.append(
        "layers: proposal "
        f"{values['inference.propose_ms']:.3f} ms (plan "
        f"{values['core.incremental_plan_ms']:.3f}, partials "
        f"{values['beagle.partials_ms']:.3f}); gradient plan "
        f"{values['core.gradient_plan_ms']:.1f} ms, sweep "
        f"{values['beagle.sweep_ms']:.1f} ms, recombine "
        f"{values['inference.recombine_ms']:.1f} ms; unattributed share "
        f"{values['obs.unattributed_share']:.4f}"
    )
    result.spans = spans
