"""Every ledger's identities: explain() and imbalances() never disagree.

Each ledger type starts balanced; hypothesis perturbs one counter
(top-level, nested, a tenant row or a breakdown entry) and the report
surfaces must then agree: ``balances()`` is ``False`` exactly when some
``explain()`` line reads ``VIOLATED``, and there is one ``VIOLATED``
line per ``imbalances()`` entry.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import FaultStats, PoolStats, ShardLedger
from repro.serve import SHED_EXPIRED, ServeLedger, TenantLedger


def _fault_stats():
    return FaultStats(detected=3, retried=2, errors=1, detected_by_class={"nan": 3})


def _pool_stats():
    stats = PoolStats(
        workers=3, offered=6, rejected=1, completed=3, shed=2, surfaced=1,
        surfaced_failures=1, failures=3, rerouted=2, probes=4, probe_errors=1,
    )
    stats.faults.errors = 4
    return stats


def _shard_ledger():
    return ShardLedger(
        total_shards=4, resumed=1, computed=3, submissions=6, ok=5, failed=1,
        wins=3, wasted=1, faulted=1,
    )


def _tenant_ledger():
    return TenantLedger("a", offered=4, rejected=1, admitted=3, served=2, queued=1)


def _serve_ledger():
    ledger = ServeLedger()
    for tenant in ("a", "a", "b", "c"):
        ledger.record_offered(tenant)
        ledger.record_admitted(tenant)
    ledger.record_offered("b")
    ledger.record_rejected("b", "queue-full")
    ledger.record_dispatched("a")
    ledger.record_served("a", late=True)
    ledger.record_dispatched("b")
    ledger.record_retried("b")
    ledger.record_failed("b")
    ledger.record_shed("c", SHED_EXPIRED)
    return ledger


LEDGERS: Dict[str, Callable[[], object]] = {
    "FaultStats": _fault_stats,
    "PoolStats": _pool_stats,
    "ShardLedger": _shard_ledger,
    "TenantLedger": _tenant_ledger,
    "ServeLedger": _serve_ledger,
}


def _counters(obj) -> List[Tuple[object, object]]:
    """Every perturbable counter as ``(container, key)``: int fields by
    attribute name, breakdown entries and nested rows by mapping key."""
    found: List[Tuple[object, object]] = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if type(value) is int:
            found.append((obj, f.name))
        elif dataclasses.is_dataclass(value):
            found.extend(_counters(value))
        elif isinstance(value, dict):
            for key, entry in value.items():
                if type(entry) is int:
                    found.append((value, key))
                elif dataclasses.is_dataclass(entry):
                    found.extend(_counters(entry))
    return found


def _perturb(container, key, delta: int) -> None:
    if isinstance(container, dict):
        container[key] += delta
    else:
        setattr(container, key, getattr(container, key) + delta)


def _assert_reports_agree(ledger) -> None:
    violated = [line for line in ledger.explain().splitlines() if "VIOLATED" in line]
    assert ledger.balances() == (not violated)
    assert len(violated) == len(ledger.imbalances())


@pytest.mark.parametrize("kind", sorted(LEDGERS))
def test_fixture_ledgers_start_balanced(kind):
    ledger = LEDGERS[kind]()
    assert ledger.balances()
    _assert_reports_agree(ledger)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(LEDGERS)),
    pick=st.integers(min_value=0, max_value=10_000),
    delta=st.integers(min_value=-3, max_value=3).filter(bool),
)
def test_explain_and_imbalances_agree_after_any_perturbation(kind, pick, delta):
    ledger = LEDGERS[kind]()
    counters = _counters(ledger)
    container, key = counters[pick % len(counters)]
    _perturb(container, key, delta)
    _assert_reports_agree(ledger)
