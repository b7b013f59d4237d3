"""Tests for repro.utils (timing, rng) and the error hierarchy."""

import math

import numpy as np
import pytest

from repro import errors
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.timing import Timer, TimingStats


class TestRng:
    def test_as_rng_from_int_deterministic(self):
        assert as_rng(5).random() == as_rng(5).random()

    def test_as_rng_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_as_rng_none(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.random() != b.random()

    def test_spawn_deterministic(self):
        xs = [g.random() for g in spawn_rngs(3, 4)]
        ys = [g.random() for g in spawn_rngs(3, 4)]
        assert xs == ys

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestTiming:
    def test_timer_measures(self):
        with Timer() as t:
            sum(range(10000))
        assert t.elapsed > 0

    def test_stats_aggregates(self):
        s = TimingStats()
        for x in (1.0, 2.0, 3.0):
            s.add(x)
        assert s.total == 6.0
        assert s.mean == 2.0
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.stddev == pytest.approx(1.0)
        assert s.count == 3

    def test_stats_empty(self):
        s = TimingStats()
        assert math.isnan(s.mean)
        assert s.stddev == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TimingStats().add(-1.0)

    def test_merge(self):
        a, b = TimingStats([1.0]), TimingStats([2.0])
        assert a.merge(b).samples == [1.0, 2.0]


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in ("NetworkError", "CPTError", "ParseError", "PotentialError",
                     "JunctionTreeError", "EvidenceError", "QueryError",
                     "BackendError"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_cpt_error_is_network_error(self):
        assert issubclass(errors.CPTError, errors.NetworkError)

    def test_parse_error_line_prefix(self):
        err = errors.ParseError("bad token", line=7)
        assert "line 7" in str(err)
        assert err.line == 7

    def test_parse_error_without_line(self):
        assert errors.ParseError("oops").line is None
