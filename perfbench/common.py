"""Pieces every workload shares: the result record and set-up timing."""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, TypeVar

from spans import Span
from speed import SpeedProbe
from stats import median, tail

__all__ = ["Result", "peak_rss_mb", "repeat_setup", "latency_metrics", "normalise"]

T = TypeVar("T")


@dataclass
class Result:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    #: False when a check that is not per-operation failed (a ledger).
    checks_ok: bool = True
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines for standard error.
    notes: List[str] = field(default_factory=list)
    #: Spans of the traced run, for the Chrome-trace file.
    spans: List[Span] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        """Every operation matched its reference and every check held."""
        return self.checks_ok and self.failed == 0 and self.attempted > 0

    def fail(self, message: str) -> None:
        """Count one wrong or failed operation and say why."""
        self.failed += 1
        if self.failed <= 5:
            self.notes.append(f"error: {message}")


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_setup(
    build: Callable[[], T], repeats: int, probe: SpeedProbe
) -> Tuple[T, float]:
    """Run ``build`` ``repeats`` times; keep the last result.

    Returns it with the median wall time of one build. The previous
    build is released before the next starts, so peak memory holds one.
    The machine's speed is sampled between builds.
    """
    times: List[float] = []
    built = None
    for _ in range(repeats):
        built = None
        gc.collect()
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
        probe.sample()
    return built, median(times)


def latency_metrics(samples_s: List[float], values: Dict[str, float]) -> None:
    """Fill the median latency (end-to-end) and the tail (per layer: it
    does not repeat within a tenth run to run on a shared machine)."""
    p, tail_value, _ = tail(samples_s)
    values["latency_ms_p50"] = median(samples_s) * 1e3
    values["e2e.latency_ms_tail"] = tail_value * 1e3
    values["e2e.tail_percentile"] = p
    values["e2e.samples"] = len(samples_s)


def normalise(
    values: Dict[str, float], probe: SpeedProbe, setup_samples: int, result: Result
) -> None:
    """Express the gated timings at the reference machine speed.

    The first ``setup_samples`` speed samples were taken between set-ups
    and scale ``setup_s``; the rest were taken during the measured work.
    The measured values stay as ``raw.*`` per-layer metrics, beside the
    speed factor, and are printed with every run.
    """
    setup_factor = probe.factor(0, setup_samples)
    factor = probe.factor(setup_samples)
    values["env.speed_factor"] = factor
    for name in ("setup_s", "latency_ms_p50", "throughput_per_s"):
        values[f"raw.{name}"] = values[name]
    values["setup_s"] /= setup_factor
    values["latency_ms_p50"] /= factor
    values["throughput_per_s"] *= factor
    result.notes.append(
        f"speed factor {factor:.4f} (set-up {setup_factor:.4f}) over "
        f"{len(probe.samples)} samples; raw: "
        + ", ".join(f"{n} {values['raw.' + n]:.6g}"
                    for n in ("setup_s", "throughput_per_s", "latency_ms_p50"))
    )
