"""The backend parity gate: measure a backend against the reference.

A backend's :class:`~repro.beagle.backend.BackendInfo` *claims* a parity
class — ``bit-identical`` or ``tolerance`` with a bound. This module
checks the claim: :func:`parity_report` evaluates a seeded battery of
configurations (double/single precision, as-given and rerooted trees,
serial and batched launches, rescaling, incremental propose/accept,
sharded reduction) on both the candidate backend and the reference, and
classifies the measured deviations.

The gate's rule, enforced by :attr:`ParityReport.ok`:

* a ``bit-identical`` claim requires **every** deviation to be exactly
  zero — same dtype in, same bits out, however operations were batched;
* a ``tolerance`` claim requires every absolute log-likelihood deviation
  to stay within the backend's declared ``tolerance``.

``examples/backend_bench.py`` and ``benchmarks/bench_backend_matrix.py``
print these reports; the hypothesis suite
(``tests/property/test_backend_parity.py``) covers randomized plans on
top of this fixed battery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from .backend import (
    PARITY_BIT_IDENTICAL,
    PARITY_TOLERANCE,
    BackendInfo,
    KernelBackend,
)
from .resources import resolve_backend

__all__ = ["ParityCheck", "ParityReport", "parity_report"]


@dataclass(frozen=True)
class ParityCheck:
    """One configuration's outcome: the two log-likelihoods and the gap."""

    label: str
    reference_ll: float
    backend_ll: float
    #: Every scale-bank buffer equal bit for bit (rescaling checks only).
    scales_identical: bool = True

    @property
    def delta(self) -> float:
        """Absolute deviation of the backend from the reference."""
        return abs(self.backend_ll - self.reference_ll)

    @property
    def bit_identical(self) -> bool:
        """Exact equality — the bar for same-dtype NumPy variants."""
        return self.backend_ll == self.reference_ll and self.scales_identical


@dataclass(frozen=True)
class ParityReport:
    """Verdict of the parity battery for one backend."""

    info: BackendInfo
    checks: Tuple[ParityCheck, ...]

    @property
    def max_delta(self) -> float:
        """Largest absolute deviation across the battery."""
        return max(check.delta for check in self.checks)

    @property
    def bit_identical(self) -> bool:
        """True when every configuration matched exactly."""
        return all(check.bit_identical for check in self.checks)

    @property
    def measured_class(self) -> str:
        """The parity class the measurements support."""
        return PARITY_BIT_IDENTICAL if self.bit_identical else PARITY_TOLERANCE

    @property
    def ok(self) -> bool:
        """Does the backend honour its declared parity class?"""
        if self.info.parity == PARITY_BIT_IDENTICAL:
            return self.bit_identical
        return self.max_delta <= self.info.tolerance

    def format(self) -> str:
        """Multi-line human summary (used by the example and benches)."""
        lines = [
            f"parity of {self.info.name!r} vs reference "
            f"(claims {self.info.parity}): "
            f"{'OK' if self.ok else 'VIOLATED'}"
        ]
        for check in self.checks:
            mark = "=" if check.bit_identical else f"delta {check.delta:.3e}"
            if not check.scales_identical:
                mark += ", scale bank differs"
            lines.append(f"  {check.label:<30} {check.backend_ll:.10f}  {mark}")
        return "\n".join(lines)


def _battery_case(seed: int, n_taxa: int, n_patterns: int):
    """Deterministic (tree, model, patterns) triple for the battery."""
    from ..bench.harness import build_tree
    from ..data import random_patterns
    from ..models import random_gtr

    rng = np.random.default_rng(seed)
    tree = build_tree("random", n_taxa, seed)
    for edge in tree.edges():
        edge.length = float(rng.exponential(0.1))
    model = random_gtr(rng)
    patterns = random_patterns(tree.tip_names(), n_patterns, rng=rng)
    return tree, model, patterns


def _plan_ll(tree, model, patterns, backend, dtype, mode: str) -> float:
    """Full-traversal log-likelihood through one backend."""
    from ..core import create_instance, execute_plan, make_plan

    instance = create_instance(
        tree, model, patterns, dtype=dtype, backend=backend
    )
    return execute_plan(instance, make_plan(tree, mode))


def _scaled_run(tree, model, patterns, backend, dtype, mode: str):
    """Rescale-every-operation log-likelihood and the whole scale bank."""
    from ..core import create_instance, execute_plan, make_plan

    instance = create_instance(
        tree, model, patterns, dtype=dtype, backend=backend, scaling=True
    )
    ll = execute_plan(instance, make_plan(tree, mode, scaling=True))
    return ll, instance.scale._logs.copy()


def _incremental_ll(tree, model, patterns, backend) -> float:
    """Propose/accept a branch move incrementally; final log-likelihood."""
    from ..inference import TreeLikelihood
    from ..inference.proposals import branch_length_move

    # The accepted move mutates the tree in place; evaluate on a copy so
    # the two runs (and later battery checks) see identical inputs.
    lik = TreeLikelihood(tree.copy(), model, patterns, backend=backend)
    lik.log_likelihood()
    move = branch_length_move(lik.tree, np.random.default_rng(7))
    value = lik.propose(move)
    lik.accept()
    return value


def _sharded_ll(tree, model, patterns, backend) -> float:
    """Two-shard data-parallel log-likelihood through one backend."""
    from ..exec.sharding import ShardedLikelihood

    return ShardedLikelihood(
        tree, model, patterns, n_shards=2, backend=backend
    ).log_likelihood()


def parity_report(
    backend: Union[str, KernelBackend],
    *,
    seed: int = 20180521,
    n_taxa: int = 16,
    n_patterns: int = 64,
) -> ParityReport:
    """Run the fixed parity battery for ``backend`` vs the reference.

    The battery covers the acceptance axes: both precisions, as-given
    and concurrency-rerooted trees, serial and batched launches, the
    same four with every operation rescaled (log-likelihood and every
    scale-bank buffer compared), the incremental propose/accept path
    and the sharded reduction — each evaluated by the candidate and by
    a fresh reference backend on identical inputs.
    """
    from ..core import optimal_reroot_fast

    candidate = resolve_backend(backend)
    reference = resolve_backend("reference")
    tree, model, patterns = _battery_case(seed, n_taxa, n_patterns)
    rerooted = optimal_reroot_fast(tree).tree

    checks: List[ParityCheck] = []
    for dtype, tag in ((np.float64, "f64"), (np.float32, "f32")):
        checks.append(
            ParityCheck(
                f"{tag}/as-given",
                _plan_ll(tree, model, patterns, reference, dtype, "concurrent"),
                _plan_ll(tree, model, patterns, candidate, dtype, "concurrent"),
            )
        )
        checks.append(
            ParityCheck(
                f"{tag}/rerooted",
                _plan_ll(
                    rerooted, model, patterns, reference, dtype, "concurrent"
                ),
                _plan_ll(
                    rerooted, model, patterns, candidate, dtype, "concurrent"
                ),
            )
        )
        for label, case in (("as-given", tree), ("rerooted", rerooted)):
            for mode in ("serial", "concurrent"):
                ref_ll, ref_bank = _scaled_run(
                    case, model, patterns, reference, dtype, mode
                )
                ll, bank = _scaled_run(
                    case, model, patterns, candidate, dtype, mode
                )
                checks.append(
                    ParityCheck(
                        f"{tag}/scaled/{label}/{mode}",
                        ref_ll,
                        ll,
                        np.array_equal(bank, ref_bank),
                    )
                )
    checks.append(
        ParityCheck(
            "f64/serial",
            _plan_ll(tree, model, patterns, reference, np.float64, "serial"),
            _plan_ll(tree, model, patterns, candidate, np.float64, "serial"),
        )
    )
    checks.append(
        ParityCheck(
            "f64/incremental",
            _incremental_ll(tree, model, patterns, reference),
            _incremental_ll(tree, model, patterns, candidate),
        )
    )
    checks.append(
        ParityCheck(
            "f64/sharded",
            _sharded_ll(tree, model, patterns, reference),
            _sharded_ll(tree, model, patterns, candidate),
        )
    )
    return ParityReport(info=candidate.info, checks=tuple(checks))
