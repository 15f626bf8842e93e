"""Where the traced run wraps each layer, and per-unit sums over spans.

The benchmark calls the program only through module attributes
(``planner.execute_plan(...)``, never a name bound at import), so a
wrapper installed on the module is the function the benchmark calls.
Calls the program makes internally are wrapped where the calling
module looks the name up, e.g. ``make_gradient_plan`` as seen by
``repro.inference.derivatives``.
"""

from __future__ import annotations

from repro.beagle import instance as beagle_instance
from repro.beagle import scaling as beagle_scaling
from repro.core import planner, reroot_opt
from repro.exec import supervisor
from repro.inference import derivatives, likelihood, proposals
from repro.serve import server as serve_server
from repro.trees import tree as tree_module

from spans import SpanRecorder, Totals

__all__ = ["install_engine_layers", "install_serving_layers", "per_unit", "per_call"]

# (owner, attribute, span name). Span names are "<layer>.<what>".
ENGINE_LAYERS = [
    (reroot_opt, "optimal_reroot_fast", "core.reroot"),
    (planner, "make_plan", "core.make_plan"),
    (likelihood, "make_plan", "core.make_plan"),
    (derivatives, "make_plan", "core.make_plan"),
    (planner, "execute_plan", "core.execute_plan"),
    (likelihood, "execute_plan", "core.execute_plan"),
    (supervisor, "execute_plan", "core.execute_plan"),
    (serve_server, "execute_plan", "core.execute_plan"),
    (likelihood, "incremental_plan", "core.incremental_plan"),
    (derivatives, "make_gradient_plan", "core.gradient_plan"),
    (planner, "create_instance", "beagle.create_instance"),
    (likelihood, "create_instance", "beagle.create_instance"),
    (derivatives, "create_instance", "beagle.create_instance"),
    (derivatives, "execute_gradient_plan", "beagle.sweep"),
    (derivatives, "all_branch_derivatives", "inference.gradient"),
    (beagle_instance.BeagleInstance, "update_transition_matrices", "beagle.matrices"),
    (beagle_instance.BeagleInstance, "update_partials_set", "beagle.partials"),
    (beagle_instance.BeagleInstance, "calculate_root_log_likelihood", "beagle.root"),
    (beagle_instance.BeagleInstance, "update_upper_partials_set", "beagle.upper"),
    (beagle_instance.BeagleInstance, "seed_upper_partials", "beagle.upper"),
    (beagle_scaling.ScaleBufferBank, "reset", "beagle.scale"),
    (beagle_scaling.ScaleBufferBank, "accumulate", "beagle.scale"),
    (beagle_scaling.ScaleBufferBank, "write", "beagle.scale"),
    (likelihood.TreeLikelihood, "propose", "inference.propose"),
    (likelihood.TreeLikelihood, "accept", "inference.accept"),
    (likelihood.TreeLikelihood, "reject", "inference.reject"),
    (likelihood.TreeLikelihood, "log_likelihood", "inference.log_likelihood"),
    (proposals, "branch_length_move", "inference.move"),
    (proposals, "nni_move", "inference.move"),
    (tree_module.Tree, "copy", "trees.copy"),
]


def install_engine_layers(recorder: SpanRecorder) -> None:
    """Wrap the core, beagle and inference layers (every workload)."""
    for owner, attr, name in ENGINE_LAYERS:
        recorder.wrap(owner, attr, name)


def install_serving_layers(recorder: SpanRecorder, server, pool) -> None:
    """Wrap one server and its pool, plus the pool workers' job entry."""
    recorder.wrap(server, "submit", "serve.submit")
    recorder.wrap(server, "step", "serve.step")
    recorder.wrap(pool, "submit", "exec.submit")
    recorder.wrap(pool, "drain", "exec.drain", adopt=True)
    recorder.wrap(supervisor.PoolWorker, "execute_stack", "exec.job")


def per_unit(totals: dict, name: str, units: int, *, inclusive: bool = False) -> float:
    """Milliseconds of span ``name`` (self time unless ``inclusive``) per
    unit of work."""
    row = totals.get(name, Totals())
    if units <= 0:
        return 0.0
    return (row.total if inclusive else row.self) / units * 1e3


def per_call(totals: dict, name: str, scale: float = 1e3) -> float:
    """Mean inclusive seconds of one call of span ``name``, times ``scale``."""
    row = totals.get(name)
    return row.total / row.calls * scale if row and row.calls else 0.0
