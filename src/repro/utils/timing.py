"""Timing helpers used by the benchmark harness.

The paper reports end-to-end execution time over a batch of inference test
cases.  :class:`Timer` is a context-manager stopwatch; :class:`TimingStats`
accumulates per-case wall times and derives the summary statistics printed in
the Table-1 harness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


class Timer:
    """Context-manager stopwatch based on :func:`time.perf_counter`.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start


@dataclass
class TimingStats:
    """Accumulates wall-clock samples and summarises them."""

    samples: list[float] = field(default_factory=list)

    def add(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("negative duration")
        self.samples.append(seconds)

    @property
    def total(self) -> float:
        return float(sum(self.samples))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.samples else math.nan

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else math.nan

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else math.nan

    @property
    def stddev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        var = sum((x - mu) ** 2 for x in self.samples) / (len(self.samples) - 1)
        return math.sqrt(var)

    def merge(self, other: "TimingStats") -> "TimingStats":
        return TimingStats(self.samples + other.samples)

