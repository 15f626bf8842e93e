"""A reference burst that measures how fast the machine runs right now.

The benchmark was written on a shared VM whose speed moves by ±15 %
between ten-second windows and by up to 1.5× between minutes, for every
program alike. Each run interleaves short bursts of fixed reference work
between its rounds, while the program is idle, and reports its gated
timings at the reference speed: ``normalised = measured × (nominal /
burst)`` for times. The bursts use no code of the program, so no change
to the program moves them; the raw timings and the speed factor are
reported beside the normalised ones.

A burst has up to three parts, because the machine's phases do not
slow all code alike: interpreter-bound code (Python loops, dict lookups,
numpy scalar stores, as in the engine's per-launch dispatch) swung by 2×
where cache-sized numpy arithmetic swung by 1.5×, and thread start-up
and hand-off, which the serve workload's pool does per serving cycle,
moves with the host's scheduling. Every burst times the arithmetic
part; workloads dominated by dispatch add the interpreter part
(``eval-wide``, dominated by arithmetic on large arrays, does not), and
``serve`` adds the thread part. Over 100 s of interleaved rounds, the
ten-second medians of ``eval-narrow`` round time moved by ±30 %, and
round time over the two-part burst by ±7 %.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

import numpy as np

from stats import median

__all__ = ["NOMINAL_PART_S", "SpeedProbe"]

#: The unit normalised timings are expressed in: each burst part taking
#: this long (about its time on the benchmark's first machine).
NOMINAL_PART_S = 1.0e-3


class SpeedProbe:
    """Fixed reference work, timed in bursts between workload rounds.

    ``interpreter`` adds the interpreter-bound part to every burst and
    ``threads`` the thread start-up and hand-off part.
    """

    def __init__(self, interpreter: bool = True, threads: bool = False) -> None:
        rng = np.random.default_rng(0)
        self.interpreter = interpreter
        self.threads = threads
        self._small = rng.random((32, 1, 64, 4))
        self._mats = rng.random((32, 1, 4, 4))
        self._out = np.empty_like(self._small)
        self._order = np.arange(32)[::-1].copy()
        self._wide = rng.random((4, 1024, 4))
        self._wide_out = np.empty_like(self._wide)
        self._codes = {i: i for i in range(64)}
        self._slots = np.zeros(512, dtype=np.int64)
        self._row = rng.random((64, 4))
        self._row_out = np.empty_like(self._row)
        self.samples: List[float] = []

    def burst(self) -> float:
        """Run one burst of reference work; returns its seconds."""
        start = time.perf_counter()
        total = 0
        for k in range(16):
            np.take(self._small, self._order, axis=0, out=self._out)
            np.matmul(self._out, self._mats, out=self._out)
            np.multiply(self._out, self._small, out=self._out)
            np.multiply(self._wide, self._wide, out=self._wide_out)
            for i in range(150):
                total += i * k
        if self.interpreter:
            n = 0
            for k in range(8):
                for i in range(256):
                    b = k + i
                    if b in self._codes:
                        self._slots[n % 512] = b
                        n += 1
                for _ in range(20):
                    np.matmul(self._row, self._mats[0, 0], out=self._row_out)
                    np.multiply(self._row_out, self._row, out=self._row_out)
        if self.threads:
            for _ in range(4):
                pair = [threading.Thread(target=self._handoff) for _ in range(2)]
                for thread in pair:
                    thread.start()
                for thread in pair:
                    thread.join()
        return time.perf_counter() - start

    def _handoff(self) -> None:
        """The work each thread of the thread part does."""
        out = np.empty_like(self._row)
        for _ in range(20):
            np.matmul(self._row, self._mats[0, 0], out=out)

    def sample(self, bursts: int = 3) -> None:
        """Record the median of a few bursts."""
        self.samples.append(median([self.burst() for _ in range(bursts)]))

    def factor(self, start: int = 0, stop: Optional[int] = None) -> float:
        """Median burst time of ``samples[start:stop]`` over the nominal:
        above 1 is a slow machine."""
        chosen = self.samples[start:stop]
        if not chosen:
            raise ValueError("no speed samples taken")
        parts = 1 + self.interpreter + self.threads
        return median(chosen) / (parts * NOMINAL_PART_S)
