"""ServiceMetrics under concurrency: observers hammering from many
threads while snapshot()/reset() run must lose no updates and never
expose inconsistent state (negative open-session counts, histogram
totals that disagree with the batch counters)."""

from __future__ import annotations

import hashlib
import json
import threading

import pytest

from repro.obs.prometheus import render_prometheus
from repro.service import ServiceMetrics
from repro.service.metrics import STAGE_BUCKETS_MS, STAGES


def _hammer(threads: int, per_thread: int, work, during=None):
    """Run ``work(thread_idx, i)`` per_thread times on each thread; run
    ``during()`` repeatedly from the main thread while they race."""
    barrier = threading.Barrier(threads + 1)

    def body(idx: int) -> None:
        barrier.wait()
        for i in range(per_thread):
            work(idx, i)

    workers = [threading.Thread(target=body, args=(idx,))
               for idx in range(threads)]
    for t in workers:
        t.start()
    barrier.wait()
    while any(t.is_alive() for t in workers):
        if during is not None:
            during()
    for t in workers:
        t.join()


class TestConcurrentObservers:
    THREADS = 8
    PER_THREAD = 400

    def test_no_lost_request_updates_during_snapshots(self):
        metrics = ServiceMetrics()
        ops = ("query", "mpe", "stats")

        def work(idx: int, i: int) -> None:
            metrics.observe_request(ops[i % len(ops)], 0.001,
                                    ok=i % 7 != 0)

        snapshots = []
        _hammer(self.THREADS, self.PER_THREAD, work,
                during=lambda: snapshots.append(metrics.snapshot()))

        total = self.THREADS * self.PER_THREAD
        final = metrics.snapshot()
        assert final["requests"]["total"] == total
        assert sum(final["requests"]["by_op"].values()) == total
        errors = sum(1 for i in range(self.PER_THREAD) if i % 7 == 0)
        assert final["requests"]["errors"] == errors * self.THREADS
        # Mid-race snapshots must be monotone and self-consistent.
        last = 0
        for snap in snapshots:
            assert snap["requests"]["total"] >= last
            assert sum(snap["requests"]["by_op"].values()) == \
                snap["requests"]["total"]
            last = snap["requests"]["total"]

    def test_batch_histogram_total_matches_batch_count(self):
        metrics = ServiceMetrics()
        fills = (1, 3, 8, 17, 32)

        def work(idx: int, i: int) -> None:
            metrics.observe_batch(fills[i % len(fills)])

        def during() -> None:
            snap = metrics.snapshot()["batches"]
            assert sum(snap["fill_hist"].values()) == snap["count"]

        _hammer(self.THREADS, self.PER_THREAD, work, during=during)
        total = self.THREADS * self.PER_THREAD
        batches = metrics.snapshot()["batches"]
        assert batches["count"] == total
        assert sum(batches["fill_hist"].values()) == total
        per_thread_cases = sum(
            fills[i % len(fills)] for i in range(self.PER_THREAD))
        assert batches["cases"] == per_thread_cases * self.THREADS
        assert batches["max_fill"] == max(fills)

    def test_stage_histogram_totals_match_counts(self):
        metrics = ServiceMetrics()
        seconds = (1e-5, 2e-4, 3e-3, 0.04, 0.5, 2.0)

        def work(idx: int, i: int) -> None:
            metrics.observe_stage(STAGES[i % len(STAGES)],
                                  seconds[i % len(seconds)])

        def during() -> None:
            for stage in metrics.snapshot()["stages"].values():
                assert sum(stage["buckets"].values()) == stage["count"]

        _hammer(self.THREADS, self.PER_THREAD, work, during=during)
        stages = metrics.snapshot()["stages"]
        assert sum(s["count"] for s in stages.values()) == \
            self.THREADS * self.PER_THREAD
        for stage in stages.values():
            assert sum(stage["buckets"].values()) == stage["count"]
            assert stage["sum_ms"] > 0

    def test_session_gauge_never_negative_under_races(self):
        metrics = ServiceMetrics()
        negatives = []

        def work(idx: int, i: int) -> None:
            metrics.observe_session_event("opened")
            metrics.observe_session_update(delta_size=2)
            metrics.observe_session_query()
            metrics.observe_session_event("evicted" if i % 5 == 0
                                          else "closed")

        def during() -> None:
            open_now = metrics.snapshot()["sessions"]["open"]
            if open_now < 0:
                negatives.append(open_now)

        _hammer(self.THREADS, self.PER_THREAD, work, during=during)
        assert negatives == []
        sessions = metrics.snapshot()["sessions"]
        total = self.THREADS * self.PER_THREAD
        assert sessions["opened"] == total
        assert sessions["closed"] + sessions["evicted"] == total
        assert sessions["open"] == 0
        assert sessions["updates"] == sessions["queries"] == total
        assert sessions["mean_delta_size"] == pytest.approx(2.0)

    def test_reset_during_traffic_keeps_counters_consistent(self):
        metrics = ServiceMetrics()

        def work(idx: int, i: int) -> None:
            metrics.observe_request("query", 0.002)
            metrics.observe_cache(hit=i % 2 == 0)

        def during() -> None:
            metrics.reset()
            snap = metrics.snapshot()
            assert snap["requests"]["total"] >= 0
            assert sum(snap["requests"]["by_op"].values()) == \
                snap["requests"]["total"]
            cache = snap["model_cache"]
            assert 0.0 <= cache["hit_rate"] <= 1.0

        _hammer(self.THREADS, self.PER_THREAD, work, during=during)
        metrics.reset()
        snap = metrics.snapshot()
        assert snap["requests"]["total"] == 0
        assert snap["latency_ms"]["count"] == 0
        assert snap["stages"] == {}


class TestValidation:
    def test_unknown_session_event_rejected(self):
        metrics = ServiceMetrics()
        with pytest.raises(ValueError, match="unknown session event"):
            metrics.observe_session_event("open")
        with pytest.raises(ValueError, match="unknown session event"):
            metrics.observe_session_event("")
        # Nothing was recorded by the failed calls.
        assert metrics.snapshot()["sessions"]["opened"] == 0

    def test_unknown_stage_rejected(self):
        metrics = ServiceMetrics()
        with pytest.raises(ValueError, match="unknown stage"):
            metrics.observe_stage("network_io", 0.001)
        assert metrics.snapshot()["stages"] == {}

    def test_all_declared_stages_accepted(self):
        metrics = ServiceMetrics()
        for stage in STAGES:
            metrics.observe_stage(stage, 0.001)
        assert set(metrics.snapshot()["stages"]) == set(STAGES)


class TestStageHistogramOutput:
    """Stage histograms read the same whatever ``observe_stage`` keeps
    internally: the ``stats`` section and the Prometheus text of a fixed
    observation sequence are pinned byte for byte (the pins were taken
    from the linear-scan bucketing this replaced)."""

    SEQUENCE = [("execute", 3e-3), ("parse", 1e-5), ("execute", 0.03),
                ("serialize", 1e-4), ("queue_wait", 2.5e-4), ("parse", 0.0),
                ("cache_lookup", 1.0), ("registry_lookup", 2.0),
                ("execute", 5e-4), ("serialize", 0.25), ("queue_wait", 1e-3),
                ("execute", 7e-3)]
    STATS = ('{"parse": {"count": 2, "sum_ms": 0.01, "mean_ms": 0.005, "buckets": {"le_0.1": 2}}, "registry_lookup": {"count": 1, "sum_ms": 2000.0, "mean_ms": 2000.0, "buckets": {"inf": 1}}, "queue_wait": {"count": 2, "sum_ms": 1.25, "mean_ms": 0.625, "buckets": {"le_0.25": 1, "le_1": 1}}, "cache_lookup": {"count": 1, "sum_ms": 1000.0, "mean_ms": 1000.0, "buckets": {"le_1000": 1}}, "execute": {"count": 4, "sum_ms": 40.5, "mean_ms": 10.125, "buckets": {"le_5": 1, "le_50": 1, "le_0.5": 1, "le_10": 1}}, "serialize": {"count": 2, "sum_ms": 250.1, "mean_ms": 125.05, "buckets": {"le_0.1": 1, "le_250": 1}}}')
    PROMETHEUS_SHA256 = ("293f32aacd4c5c726bef7946ef407ab5"
                         "8a7390ccb647871a5dca62aaec501d43")

    def _snapshot(self) -> dict:
        metrics = ServiceMetrics(clock=lambda: 100.0)
        for stage, seconds in self.SEQUENCE:
            metrics.observe_stage(stage, seconds)
        return metrics.snapshot()

    def test_stats_section_is_pinned(self):
        assert json.dumps(self._snapshot()["stages"]) == self.STATS

    def test_prometheus_stage_lines_are_pinned(self):
        lines = [line for line in
                 render_prometheus(self._snapshot()).splitlines()
                 if "stage_latency" in line]
        digest = hashlib.sha256(("\n".join(lines) + "\n").encode())
        assert digest.hexdigest() == self.PROMETHEUS_SHA256

    @pytest.mark.parametrize("ms", [0.0, 0.05, *STAGE_BUCKETS_MS,
                                    *(e * 1.000001 for e in STAGE_BUCKETS_MS),
                                    5e3, float("inf")])
    def test_bucket_is_the_first_edge_at_or_above(self, ms):
        seconds = ms / 1e3
        want = next((f"le_{edge:g}" for edge in STAGE_BUCKETS_MS
                     if seconds * 1e3 <= edge), "inf")
        metrics = ServiceMetrics()
        metrics.observe_stage("execute", seconds)
        (label,) = metrics.snapshot()["stages"]["execute"]["buckets"]
        assert label == want


class _FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestClocks:
    def test_uptime_advances_and_resets(self):
        clock = _FakeClock(100.0)
        metrics = ServiceMetrics(clock=clock)
        clock.now = 102.5
        assert metrics.uptime_s() == pytest.approx(2.5)
        metrics.reset()
        clock.now = 103.75
        assert metrics.uptime_s() == pytest.approx(1.25)

    def test_snapshot_uptime_uses_same_clock(self):
        clock = _FakeClock(50.0)
        metrics = ServiceMetrics(clock=clock)
        clock.now = 53.0
        assert metrics.snapshot()["uptime_s"] == pytest.approx(3.0)
