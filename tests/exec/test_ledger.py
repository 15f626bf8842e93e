"""The closed-identity Ledger base: arithmetic, summary and export rows."""

from __future__ import annotations

from repro.exec import FaultSchedule, FaultSpec, FaultStats, PoolStats, ShardLedger
from repro.serve import ServeLedger


def _schedule(n_faults):
    schedule = FaultSchedule(FaultSpec(rate=1.0, seed=1, classes=("nan",)))
    for _ in range(n_faults):
        schedule.draw()
    return schedule


class TestMergeAndReset:
    def test_merge_adds_counters_breakdowns_rows_and_links(self):
        a = FaultStats(
            detected=1, detected_by_class={"nan": 1}, schedules=(_schedule(2),)
        )
        b = FaultStats(
            detected=2,
            detected_by_class={"nan": 1, "launch": 1},
            schedules=(_schedule(3),),
        )
        a.merge(b)
        assert (a.detected, a.detected_by_class) == (3, {"nan": 2, "launch": 1})
        assert a.injected == 5 and a.injected_by_class == {"nan": 5}

        left, right = ServeLedger(), ServeLedger()
        left.record_offered("a")
        right.record_offered("a")
        right.record_offered("b")
        left.merge(right)
        assert left.offered == 3
        offered = {name: row.offered for name, row in left.tenants.items()}
        assert offered == {"a": 2, "b": 1}
        assert left.tenants["b"] is not right.tenants["b"]  # rows are copied

    def test_reset_zeroes_counters_and_keeps_links(self):
        stats = FaultStats(
            detected=4, detected_by_class={"nan": 4}, schedules=(_schedule(4),)
        )
        stats.reset()
        assert (stats.detected, stats.detected_by_class) == (0, {})
        assert stats.injected == 4  # the schedule owns the injected count

    def test_pool_snapshot_nests_its_fault_ledger(self):
        stats = PoolStats(offered=2, completed=2, evicted=[1])
        stats.faults.errors = 1
        assert stats.imbalances() == [
            "faults.errors=1 != failures=0 + probe_errors=0"
        ]
        assert "evicted=[1]" in stats.format()


class TestSummaryAndGauges:
    def test_shard_summary_reads_injections_from_the_schedule(self):
        schedule = FaultSchedule(FaultSpec(rate=1.0, seed=2, classes=("shard_lost",)))
        schedule.draw_keyed(0, 0)
        ledger = ShardLedger(total_shards=1, schedules=(schedule,))
        assert ledger.format().endswith("injected={'shard_lost': 1}")
        assert ("injected", None, 1) in list(ledger.gauges())

    def test_serve_gauges_label_breakdowns_and_count_tenants(self):
        ledger = ServeLedger()
        ledger.record_offered("a")
        ledger.record_rejected("a", "queue-full")
        gauges = list(ledger.gauges())
        assert ("rejected_by_reason", {"reason": "queue-full"}, 1) in gauges
        assert ("tenants", None, 1) in gauges
