"""Self-tests of the benchmark's own arithmetic, at tiny sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
from spans import Span, SpanRecorder, covered, self_times, summarize  # noqa: E402
from stats import SloTally, latency_from_due, percentile, tail  # noqa: E402


# -- tail percentile choice --------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(19, 50.0), (20, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (2000, 99.5), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    p, value, beyond = tail([float(i) for i in range(n)])
    assert p == expected
    if n >= 20:
        assert beyond >= 10
    assert value == percentile([float(i) for i in range(n)], p)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 80) == 4.0
    assert percentile(values, 81) == 5.0
    assert percentile(values, 0) == 1.0


# -- self-time subtraction ---------------------------------------------
def _span(i, parent, start, end, thread=1, name="x"):
    return Span(i, parent, name, start, end, thread, None)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, 0, 0.0, 10.0, name="parent"),
        # Two children on other threads overlap: their union is [1, 5].
        _span(2, 1, 1.0, 3.0, thread=2, name="child"),
        _span(3, 1, 2.0, 5.0, thread=3, name="child"),
        # A grandchild reduces its parent's self time, not the root's.
        _span(4, 3, 2.5, 4.5, thread=3, name="grandchild"),
        # A child sticking out of its parent only counts inside it.
        _span(5, 1, 9.0, 12.0, thread=2, name="child"),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[3] == pytest.approx(3.0 - 2.0)
    assert own[4] == pytest.approx(2.0)
    totals = summarize(spans)
    assert totals["child"].calls == 3
    assert totals["child"].total == pytest.approx(2.0 + 3.0 + 3.0)


def test_covered_merges_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 10) == 0.0


# -- span recording from outside --------------------------------------
def test_wrap_records_parents_units_and_restores():
    module = types.SimpleNamespace()

    class Engine:
        def work(self, x):
            return module.inner(x) + 1

    def inner(x):
        return x * 2

    module.inner = inner
    recorder = SpanRecorder()
    recorder.wrap(module, "inner", "layer.inner")
    recorder.wrap(Engine, "work", "layer.work")
    engine = Engine()
    assert recorder.call("bench.unit", engine.work, (3,), unit="u1") == 7
    recorder.restore()
    assert module.inner is inner
    assert "work" in vars(Engine) and Engine.work.__name__ == "work"
    assert not hasattr(Engine.work, "__wrapped__")
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["layer.work"].parent == by_name["bench.unit"].span_id
    assert by_name["layer.inner"].parent == by_name["layer.work"].span_id
    assert {s.unit for s in recorder.spans} == {"u1"}
    engine.work(1)  # unwrapped again: nothing recorded
    assert len(recorder.spans) == 3


def test_wrap_on_one_object_and_cross_thread_adoption():
    recorder = SpanRecorder()

    class Pool:
        def drain(self):
            worker = threading.Thread(
                target=lambda: recorder.call("exec.job", lambda: None, unit="r7")
            )
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive()

    pool = Pool()
    recorder.wrap(pool, "drain", "exec.drain", adopt=True)
    pool.drain()
    recorder.restore()
    assert "drain" not in vars(pool)
    drain = next(s for s in recorder.spans if s.name == "exec.drain")
    job = next(s for s in recorder.spans if s.name == "exec.job")
    assert job.parent == drain.span_id and job.thread != drain.thread
    assert recorder.cross_parent == 0


# -- open-loop latency and SLO accounting -----------------------------
def test_latency_counts_generator_lag_from_due_time():
    assert latency_from_due(due=1.0, submitted=1.2, wait_s=0.3) == pytest.approx(0.5)
    assert latency_from_due(due=1.0, submitted=1.0, wait_s=0.3) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        latency_from_due(due=1.0, submitted=0.9, wait_s=0.1)


def test_slo_miss_share_counts_every_non_good_outcome():
    tally = SloTally(deadline_s=0.1)
    assert tally.record("steady", "served", 0.05) == "good"
    assert tally.record("steady", "served", 0.1) == "good"
    assert tally.record("overload", "served", 0.2) == "late"
    tally.record("overload", "shed")
    tally.record("overload", "failed")
    tally.record("overload", "rejected")
    tally.record("overload", "served", 0.01)
    assert tally.offered() == 7
    assert tally.good(["overload"]) == 1
    assert tally.miss_share() == pytest.approx(4 / 7)
    assert tally.miss_share(["overload"]) == pytest.approx(4 / 5)
    assert tally.miss_share(["steady"]) == 0.0
    with pytest.raises(ValueError):
        tally.record("steady", "served")
    with pytest.raises(ValueError):
        tally.record("steady", "lost")


# -- timings at the reference machine speed -------------------------------
def test_normalise_scales_timings_and_keeps_raw():
    from common import Result, normalise
    from speed import NOMINAL_PART_S, SpeedProbe

    probe = SpeedProbe(interpreter=False)
    with pytest.raises(ValueError):
        probe.factor()
    # Set-up ran at full speed (bursts at the nominal), the measured work
    # at half speed (bursts take twice the nominal).
    probe.samples = [NOMINAL_PART_S, 2 * NOMINAL_PART_S, 2 * NOMINAL_PART_S,
                     5 * NOMINAL_PART_S]
    values = {"setup_s": 4.0, "latency_ms_p50": 10.0, "throughput_per_s": 50.0}
    normalise(values, probe, 1, Result())
    assert values["env.speed_factor"] == pytest.approx(2.0)
    assert values["setup_s"] == pytest.approx(4.0)
    assert values["latency_ms_p50"] == pytest.approx(5.0)
    assert values["throughput_per_s"] == pytest.approx(100.0)
    assert values["raw.throughput_per_s"] == 50.0
    both = SpeedProbe()
    both.samples = [4 * NOMINAL_PART_S]
    assert both.factor() == pytest.approx(2.0)
    assert both.burst() > probe.burst() > 0.0


# -- the catalog and BENCHMARK.json agree ------------------------------
def test_benchmark_json_matches_catalog():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == catalog.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == catalog.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == catalog.PER_LAYER


def test_emit_fills_unused_layers_and_rejects_typos():
    e2e = {name: 1.0 for name, *_ in catalog.END_TO_END}
    out = catalog.emit({**e2e, "core.plan_ms": 2.0}, trace=False)
    assert list(out) == [name for name, *_ in catalog.END_TO_END]
    layers = catalog.emit({**e2e, "core.plan_ms": 2.0}, trace=True)
    assert layers["core.plan_ms"] == {"value": 2.0, "unit": "ms"}
    assert layers["serve.late"]["value"] == 0.0
    with pytest.raises(KeyError):
        catalog.emit({**e2e, "core.plan_msec": 1.0}, trace=False)
    with pytest.raises(KeyError):
        catalog.emit({"setup_s": 1.0}, trace=False)


# -- refusal without the program ----------------------------------------
def test_run_without_program_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-narrow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
