"""Shared infrastructure for the paper-reproduction benchmarks.

Each ``bench_*.py`` file regenerates one table or figure of the paper and
measures the computational kernel behind it with pytest-benchmark. Result
tables are written to ``bench_results/`` (markdown) and echoed to stdout
so ``pytest benchmarks/ --benchmark-only -s`` shows them inline.

Scale: by default the sweeps run at a reduced size so the whole suite
finishes in well under a minute. Set ``REPRO_FULL=1`` to reproduce the
paper's full sample sizes (1,000 random trees, 4,096-OTU trees).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"

#: Full-scale reproduction toggle (paper sample sizes).
FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def full_scale() -> bool:
    return FULL


def emit(results_dir: Path, name: str, text: str) -> None:
    """Write a result artefact and echo it."""
    (results_dir / name).write_text(text)
    print()
    print(text)


def interleaved_best(arms, repeats):
    """Min wall-clock seconds per arm, and each arm's last value.

    ``arms`` maps a name to a callable returning ``(seconds, value)``.
    Every repeat runs every arm once, rotating which arm goes first, so
    a drift in machine speed lands on all arms alike instead of on
    whichever arm a sequential measurement happened to time last. One
    untimed round runs first: the first evaluations of a process run
    measurably faster than the steady state, and that transient would
    otherwise favour whichever arm is timed first.
    """
    names = list(arms)
    best = dict.fromkeys(names, float("inf"))
    values = {}
    for name in names:
        arms[name]()
    for r in range(repeats):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            seconds, values[name] = arms[name]()
            best[name] = min(best[name], seconds)
    return best, values
