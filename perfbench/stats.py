"""Order statistics and the serving accounting the benchmark reports."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "TAIL_CANDIDATES",
    "MIN_BEYOND",
    "percentile",
    "median",
    "tail",
    "latency_from_due",
    "SloTally",
]

#: Percentiles a tail may be reported at, lowest first.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` values.

    Rounded before the ceiling so that, e.g., 99.9 % of 10000 is rank
    9990 and not 9991 through binary rounding of 99.9.
    """
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the ``ceil(p/100 * n)``-th smallest value."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    """The 50th nearest-rank percentile."""
    return percentile(values, 50.0)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest candidate percentile with ``MIN_BEYOND`` samples above it.

    Returns ``(percentile, value, samples_beyond)``. With too few samples
    for any tail the median is returned with its own count beyond.
    """
    n = len(values)
    chosen = TAIL_CANDIDATES[0]
    for p in TAIL_CANDIDATES:
        if n - _rank(p, n) >= MIN_BEYOND:
            chosen = p
    beyond = n - _rank(chosen, n)
    return chosen, percentile(values, chosen), beyond


def latency_from_due(due: float, submitted: float, wait_s: float) -> float:
    """Open-loop latency: completion time minus the time the request was due.

    The server times ``wait_s`` from its own submit; a generator running
    late submits after the due time, and that lag is part of the latency.
    """
    if submitted < due:
        raise ValueError("a request cannot be submitted before it is due")
    return (submitted - due) + wait_s


class SloTally:
    """Per-phase accounting of an open-loop trace against a deadline.

    Every offered request ends as exactly one of: served within the
    deadline (counted from its due time), served late, shed, failed or
    rejected at admission. Everything but the first misses the SLO.
    """

    OUTCOMES = ("good", "late", "shed", "failed", "rejected")

    def __init__(self, deadline_s: float) -> None:
        self.deadline_s = deadline_s
        self.counts: Dict[str, Dict[str, int]] = {}

    def record(self, phase: str, outcome: str, latency_s: Optional[float] = None) -> str:
        """Count one terminal outcome; served requests pass their latency.

        ``outcome`` is ``"served"``, ``"shed"``, ``"failed"`` or
        ``"rejected"``; served ones are split into good and late here.
        Returns the bucket counted.
        """
        if outcome == "served":
            if latency_s is None:
                raise ValueError("a served request needs its latency")
            bucket = "good" if latency_s <= self.deadline_s else "late"
        elif outcome in ("shed", "failed", "rejected"):
            bucket = outcome
        else:
            raise ValueError(f"unknown outcome {outcome!r}")
        row = self.counts.setdefault(phase, dict.fromkeys(self.OUTCOMES, 0))
        row[bucket] += 1
        return bucket

    def offered(self, phases: Optional[Iterable[str]] = None) -> int:
        """Requests offered in the given phases (all when ``None``)."""
        return sum(sum(row.values()) for row in self._rows(phases))

    def good(self, phases: Optional[Iterable[str]] = None) -> int:
        """Requests served within the deadline."""
        return sum(row["good"] for row in self._rows(phases))

    def miss_share(self, phases: Optional[Iterable[str]] = None) -> float:
        """``(rejected + shed + failed + late) / offered``."""
        offered = self.offered(phases)
        if offered == 0:
            raise ValueError("no requests offered")
        return (offered - self.good(phases)) / offered

    def _rows(self, phases: Optional[Iterable[str]]) -> List[Dict[str, int]]:
        if phases is None:
            return list(self.counts.values())
        return [self.counts[p] for p in phases if p in self.counts]
