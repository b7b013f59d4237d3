"""Small shared utilities: timing, RNG handling, validation helpers."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.timing import Timer, TimingStats

__all__ = ["as_rng", "spawn_rngs", "Timer", "TimingStats"]
