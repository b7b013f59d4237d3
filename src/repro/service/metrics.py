"""Serving metrics: latency percentiles, batch fill, cache hits, throughput.

The counters quantify exactly the claims the service layer makes:

* **latency percentiles** (p50/p90/p99 over a sliding reservoir) — what a
  caller experiences, including micro-batching queue wait;
* **batch-fill histogram** — whether dynamic batching actually coalesces
  requests (mean fill > 1) or degenerates to per-request flushes;
* **cache hit rate** — how often the model registry serves a resident
  compiled tree instead of paying compilation;
* **throughput** — requests/s over a recent window plus lifetime.

Everything is plain counters under one lock — safe to update from the
event loop and the batcher's executor threads alike — and exported as one
JSON-ready dict by :meth:`ServiceMetrics.snapshot` (the server's ``stats``
endpoint).  The clock is injectable so tests can drive time explicitly.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import Counter, deque

#: Upper edges of the batch-fill histogram buckets (le-style, like
#: Prometheus): a flush of k cases lands in the first bucket with edge >= k.
FILL_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def _fill_bucket(fill: int) -> str:
    for edge in FILL_BUCKETS:
        if fill <= edge:
            return f"le_{edge}"
    return "inf"


#: Upper edges (milliseconds) of the per-stage latency histograms —
#: log-spaced from sub-millisecond kernel work up to the slow-query
#: threshold's order of magnitude.
STAGE_BUCKETS_MS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
                    100.0, 250.0, 500.0, 1000.0)

#: Request stages the server/batcher time (`observe_stage` accepts only
#: these, mirroring the span names in :mod:`repro.obs.trace`).
STAGES = ("parse", "registry_lookup", "queue_wait", "cache_lookup",
          "execute", "serialize")


#: Histogram label of each stage bucket, ``inf`` last: the label of a
#: duration is ``_STAGE_LABELS[bisect_left(STAGE_BUCKETS_MS, ms)]`` (the
#: first bucket whose edge is >= ``ms``).
_STAGE_LABELS = (*(f"le_{edge:g}" for edge in STAGE_BUCKETS_MS), "inf")


def _percentile(data: list[float], p: float) -> float:
    """Nearest-rank percentile over already-sorted ``data`` (0 if empty)."""
    if not data:
        return 0.0
    rank = max(0, min(len(data) - 1, round(p / 100.0 * (len(data) - 1))))
    return data[rank]


class ServiceMetrics:
    """Aggregated counters for one server (or one test harness)."""

    def __init__(self, *, latency_window: int = 4096,
                 rate_window_s: float = 60.0,
                 qps_window_s: float = 10.0,
                 clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._rate_window_s = rate_window_s
        self._qps_window_s = qps_window_s
        self._latency_window = latency_window
        self._reset_locked()

    def _reset_locked(self) -> None:
        self._start = self._clock()
        #: Sliding reservoir of the most recent request latencies (seconds).
        self._latencies: deque[float] = deque(maxlen=self._latency_window)
        #: Completion timestamps inside the throughput window.
        self._timestamps: deque[float] = deque()
        self._requests = 0
        self._errors = 0
        self._by_op: Counter[str] = Counter()
        self._batches = 0
        self._batched_cases = 0
        self._max_fill = 0
        self._fill_hist: Counter[str] = Counter()
        self._fallback_cases = 0
        #: Flushes by what started them: an arrival (idle key, or a full
        #: queue) vs the completion of the flush they queued behind; idle
        #: + behind is the total, of which ``inline`` ran on the loop.
        self._flushes = {"flushes_idle": 0, "flushes_behind": 0,
                         "flushes_inline": 0}
        self._explicit_batches = 0
        self._explicit_cases = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._baseline_hits = 0
        #: Per-engine-class query counters + ESS aggregation (approx only).
        self._engine_cases: Counter[str] = Counter()
        self._ess_sum = 0.0
        self._ess_count = 0
        #: Queries answered by the result memo.
        self._memo_served = 0
        #: Streaming sessions: lifecycle counters (open = the current
        #: gauge), updates/queries served against session state, and the
        #: total evidence-edit count across updates.
        self._sessions_opened = 0
        self._sessions_closed = 0
        self._sessions_evicted = 0
        self._session_updates = 0
        self._session_queries = 0
        self._session_delta_sum = 0
        #: Per stage: ``[count, sum_s, {bucket label: count}]`` — the
        #: latency histogram plus count/sum, so the exposition can render
        #: true Prometheus histograms with ``_sum``/``_count`` series.
        self._stages: dict[str, list] = {stage: [0, 0.0, {}]
                                         for stage in STAGES}
        #: Per-network request timestamps inside the short QPS window —
        #: the live signal the cluster router's hot-model replication
        #: reads — plus lifetime totals for the stats endpoint.
        self._network_times: dict[str, deque[float]] = {}
        self._network_totals: Counter[str] = Counter()

    def reset(self) -> None:
        """Zero every counter and restart the clock (the ``stats_reset`` op).

        Benchmarks bracket a measurement window with ``stats_reset`` /
        ``stats`` so warm-up traffic cannot pollute the figures.
        """
        with self._lock:
            self._reset_locked()

    # ------------------------------------------------------------ observers
    def observe_request(self, op: str, latency_s: float, ok: bool = True) -> None:
        """One finished request (any endpoint), with its end-to-end latency."""
        with self._lock:
            now = self._clock()
            self._requests += 1
            self._by_op[op] += 1
            if not ok:
                self._errors += 1
            self._latencies.append(latency_s)
            self._timestamps.append(now)
            self._trim(now)

    def observe_batch(self, fill: int) -> None:
        """One vectorised flush that calibrated ``fill`` coalesced cases."""
        with self._lock:
            self._batches += 1
            self._batched_cases += fill
            self._max_fill = max(self._max_fill, fill)
            self._fill_hist[_fill_bucket(fill)] += 1

    def observe_flush(self, behind: bool) -> None:
        """One flush started — released by a completing flush, or not."""
        with self._lock:
            self._flushes["flushes_behind" if behind else "flushes_idle"] += 1

    def observe_inline_flush(self) -> None:
        """One started flush is served on the event loop, not the worker."""
        with self._lock:
            self._flushes["flushes_inline"] += 1

    def observe_fallback(self, cases: int = 1) -> None:
        """Cases served by the per-case path (soft evidence / poisoned batch)."""
        with self._lock:
            self._fallback_cases += cases

    def observe_explicit_batch(self, cases: int) -> None:
        """One client-assembled ``query_batch`` call.

        Tracked apart from :meth:`observe_batch` so ``mean_fill`` measures
        only what the *micro-batcher* coalesced — client-side batching must
        not be able to fake a healthy coalescing signal.
        """
        with self._lock:
            self._explicit_batches += 1
            self._explicit_cases += cases

    def observe_cache(self, hit: bool) -> None:
        """One model-registry lookup: resident (hit) or loaded+compiled (miss)."""
        with self._lock:
            if hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1

    def observe_baseline_hit(self) -> None:
        """A no-evidence query answered from the resident calibrated baseline."""
        with self._lock:
            self._baseline_hits += 1

    def observe_engine(self, kind: str, cases: int = 1,
                       ess: float | None = None) -> None:
        """``cases`` queries served by engine class ``kind``.

        ``ess`` (approx only) feeds the mean effective-sample-size gauge —
        a low mean ESS flags that the sampling budget is too small for the
        traffic's evidence patterns.
        """
        with self._lock:
            self._engine_cases[kind] += cases
            if ess is not None:
                self._ess_sum += ess
                self._ess_count += 1

    def observe_memo_serve(self) -> None:
        """One query answered by the result memo."""
        with self._lock:
            self._memo_served += 1

    def observe_session_event(self, event: str) -> None:
        """One session lifecycle transition: ``opened``/``closed``/``evicted``.

        Unknown event names raise — a typo'd caller must fail loudly, not
        silently inflate the eviction counter (and with it drive the
        ``sessions.open`` gauge negative).
        """
        with self._lock:
            if event == "opened":
                self._sessions_opened += 1
            elif event == "closed":
                self._sessions_closed += 1
            elif event == "evicted":
                self._sessions_evicted += 1
            else:
                raise ValueError(
                    f"unknown session event {event!r} "
                    "(expected 'opened', 'closed', or 'evicted')")

    def observe_stage(self, stage: str, seconds: float) -> None:
        """One timed request stage (``parse``/``queue_wait``/``execute``/...).

        Feeds the per-stage latency histograms in :meth:`snapshot` and the
        Prometheus exposition — the always-on aggregate complement to the
        sampled span traces.
        """
        label = _STAGE_LABELS[bisect_left(STAGE_BUCKETS_MS, seconds * 1e3)]
        with self._lock:
            stat = self._stages.get(stage)
            if stat is None:
                raise ValueError(
                    f"unknown stage {stage!r} (expected one of {STAGES})")
            stat[0] += 1
            stat[1] += seconds
            hist = stat[2]
            hist[label] = hist.get(label, 0) + 1

    def observe_session_update(self, delta_size: int) -> None:
        """One ``session_update`` applied ``delta_size`` evidence edits."""
        with self._lock:
            self._session_updates += 1
            self._session_delta_sum += delta_size

    def observe_session_query(self) -> None:
        """One posterior read served from persistent session state."""
        with self._lock:
            self._session_queries += 1

    def observe_network_request(self, network: str) -> None:
        """One request routed to ``network`` (feeds the live QPS window).

        The cluster router calls this per routed work op; ``network_qps``
        is then the replication driver — a model whose short-window QPS
        crosses the hot threshold earns replicas on more workers.
        """
        with self._lock:
            now = self._clock()
            times = self._network_times.get(network)
            if times is None:
                times = self._network_times[network] = deque()
            times.append(now)
            self._network_totals[network] += 1
            cutoff = now - self._qps_window_s
            while times and times[0] < cutoff:
                times.popleft()

    def network_qps(self) -> dict[str, float]:
        """Per-network requests/s over the short QPS window (live, not
        lifetime — a model that *was* hot an hour ago reads ~0 now)."""
        with self._lock:
            now = self._clock()
            cutoff = now - self._qps_window_s
            out: dict[str, float] = {}
            for name, times in self._network_times.items():
                while times and times[0] < cutoff:
                    times.popleft()
                out[name] = len(times) / self._qps_window_s
            return out

    def mean_ess(self) -> float:
        """Mean reported ESS over approx-served queries (0 if none)."""
        with self._lock:
            return self._ess_sum / self._ess_count if self._ess_count else 0.0

    # ------------------------------------------------------------- summaries
    def _trim(self, now: float) -> None:
        cutoff = now - self._rate_window_s
        while self._timestamps and self._timestamps[0] < cutoff:
            self._timestamps.popleft()

    def uptime_s(self) -> float:
        """Seconds since construction or the last :meth:`reset`.

        The single uptime source: both the ``health`` and ``stats``
        endpoints report this, so they cannot disagree after a
        ``stats_reset``.
        """
        with self._lock:
            return max(self._clock() - self._start, 1e-9)

    def percentile(self, p: float) -> float:
        """The p-th latency percentile (seconds) over the reservoir; 0 if empty."""
        with self._lock:
            data = sorted(self._latencies)
        return _percentile(data, p)

    def mean_batch_fill(self) -> float:
        """Cases per vectorised flush; > 1 means coalescing is happening."""
        with self._lock:
            return self._batched_cases / self._batches if self._batches else 0.0

    def snapshot(self) -> dict:
        """One JSON-ready dict of every counter (the ``stats`` endpoint body)."""
        with self._lock:
            now = self._clock()
            self._trim(now)
            uptime = max(now - self._start, 1e-9)
            window = min(self._rate_window_s, uptime)
            data = sorted(self._latencies)
            lookups = self._cache_hits + self._cache_misses
            return {
                "uptime_s": uptime,
                "requests": {
                    "total": self._requests,
                    "errors": self._errors,
                    "by_op": dict(self._by_op),
                },
                "throughput_rps": {
                    "window": len(self._timestamps) / window,
                    "lifetime": self._requests / uptime,
                },
                "latency_ms": {
                    "count": len(data),
                    "p50": _percentile(data, 50) * 1e3,
                    "p90": _percentile(data, 90) * 1e3,
                    "p99": _percentile(data, 99) * 1e3,
                    "mean": (sum(data) / len(data) * 1e3) if data else 0.0,
                    "max": (data[-1] * 1e3) if data else 0.0,
                },
                "batches": {
                    "count": self._batches,
                    "cases": self._batched_cases,
                    "mean_fill": (self._batched_cases / self._batches
                                  if self._batches else 0.0),
                    "max_fill": self._max_fill,
                    "fill_hist": dict(self._fill_hist),
                    "fallback_cases": self._fallback_cases,
                    **self._flushes,
                    "explicit_count": self._explicit_batches,
                    "explicit_cases": self._explicit_cases,
                },
                "model_cache": {
                    "hits": self._cache_hits,
                    "misses": self._cache_misses,
                    "hit_rate": (self._cache_hits / lookups) if lookups else 0.0,
                    "baseline_hits": self._baseline_hits,
                },
                "engines": {
                    "exact_cases": self._engine_cases.get("exact", 0),
                    "approx_cases": self._engine_cases.get("approx", 0),
                    "mean_ess": (self._ess_sum / self._ess_count
                                 if self._ess_count else 0.0),
                },
                "incremental": {"memo_served": self._memo_served},
                "sessions": {
                    "opened": self._sessions_opened,
                    "closed": self._sessions_closed,
                    "evicted": self._sessions_evicted,
                    "open": (self._sessions_opened - self._sessions_closed
                             - self._sessions_evicted),
                    "updates": self._session_updates,
                    "queries": self._session_queries,
                    "mean_delta_size": (self._session_delta_sum
                                        / self._session_updates
                                        if self._session_updates else 0.0),
                },
                "stages": {
                    stage: {
                        "count": count,
                        "sum_ms": sum_s * 1e3,
                        "mean_ms": sum_s / count * 1e3,
                        "buckets": dict(hist),
                    }
                    for stage, (count, sum_s, hist) in self._stages.items()
                    if count
                },
                "networks": {
                    name: {
                        "total": self._network_totals[name],
                        "qps": (sum(1 for t in times
                                    if t >= now - self._qps_window_s)
                                / self._qps_window_s),
                    }
                    for name, times in self._network_times.items()
                },
            }


# ---------------------------------------------------------------- aggregation
def _weighted_mean(pairs: list[tuple[float, float]]) -> float:
    """Count-weighted mean over ``(value, weight)`` pairs (0 if no weight)."""
    total = sum(w for _, w in pairs)
    return sum(v * w for v, w in pairs) / total if total else 0.0


def aggregate_snapshots(snapshots: list[dict]) -> dict:
    """Merge per-worker ``ServiceMetrics.snapshot()`` dicts into one
    cluster-total snapshot (the router's ``stats`` body).

    Additive counters sum; rates/means are recomputed from the summed
    numerators/denominators; latency percentiles are count-weighted means
    of the per-worker percentiles (exact merging would need the raw
    reservoirs — the approximation is flagged here and in docs/cluster.md,
    and the per-worker snapshots travel alongside under ``workers`` so
    nothing is hidden).  Worker ids (when stamped by worker-mode servers)
    key the per-worker section.
    """
    snapshots = [s for s in snapshots if s]
    if not snapshots:
        return {"workers": 0}

    def sum_path(*path):
        total = 0
        for snap in snapshots:
            node = snap
            for key in path:
                node = node.get(key, {}) if isinstance(node, dict) else {}
            if isinstance(node, (int, float)):
                total += node
        return total

    requests = sum_path("requests", "total")
    errors = sum_path("requests", "errors")
    by_op: Counter[str] = Counter()
    fill_hist: Counter[str] = Counter()
    for snap in snapshots:
        by_op.update(snap.get("requests", {}).get("by_op", {}))
        fill_hist.update(snap.get("batches", {}).get("fill_hist", {}))
    latency_pairs = {
        p: [(s["latency_ms"][p], s["latency_ms"]["count"])
            for s in snapshots if s.get("latency_ms", {}).get("count")]
        for p in ("p50", "p90", "p99", "mean")
    }
    batches = sum_path("batches", "count")
    batched_cases = sum_path("batches", "cases")
    hits = sum_path("model_cache", "hits")
    lookups = hits + sum_path("model_cache", "misses")
    updates = sum_path("sessions", "updates")
    stages: dict[str, dict] = {}
    for snap in snapshots:
        for stage, stats in snap.get("stages", {}).items():
            agg = stages.setdefault(stage, {"count": 0, "sum_ms": 0.0,
                                            "buckets": Counter()})
            agg["count"] += stats.get("count", 0)
            agg["sum_ms"] += stats.get("sum_ms", 0.0)
            agg["buckets"].update(stats.get("buckets", {}))
    for stage, agg in stages.items():
        agg["mean_ms"] = agg["sum_ms"] / agg["count"] if agg["count"] else 0.0
        agg["buckets"] = dict(agg["buckets"])
    networks: dict[str, dict] = {}
    for snap in snapshots:
        for name, stats in snap.get("networks", {}).items():
            agg = networks.setdefault(name, {"total": 0, "qps": 0.0})
            agg["total"] += stats.get("total", 0)
            agg["qps"] += stats.get("qps", 0.0)
    ess_pairs = [(s["engines"]["mean_ess"], s["engines"]["approx_cases"])
                 for s in snapshots
                 if s.get("engines", {}).get("approx_cases")]
    return {
        "workers": len(snapshots),
        "uptime_s": max(s.get("uptime_s", 0.0) for s in snapshots),
        "requests": {"total": requests, "errors": errors,
                     "by_op": dict(by_op)},
        "throughput_rps": {
            "window": sum_path("throughput_rps", "window"),
            "lifetime": sum_path("throughput_rps", "lifetime"),
        },
        "latency_ms": {
            "count": sum_path("latency_ms", "count"),
            **{p: _weighted_mean(pairs)
               for p, pairs in latency_pairs.items()},
            "max": max((s.get("latency_ms", {}).get("max", 0.0)
                        for s in snapshots), default=0.0),
        },
        "batches": {
            "count": batches,
            "cases": batched_cases,
            "mean_fill": batched_cases / batches if batches else 0.0,
            "max_fill": max((s.get("batches", {}).get("max_fill", 0)
                             for s in snapshots), default=0),
            "fill_hist": dict(fill_hist),
            "fallback_cases": sum_path("batches", "fallback_cases"),
            "flushes_idle": sum_path("batches", "flushes_idle"),
            "flushes_behind": sum_path("batches", "flushes_behind"),
            "flushes_inline": sum_path("batches", "flushes_inline"),
            "explicit_count": sum_path("batches", "explicit_count"),
            "explicit_cases": sum_path("batches", "explicit_cases"),
        },
        "model_cache": {
            "hits": hits,
            "misses": lookups - hits,
            "hit_rate": hits / lookups if lookups else 0.0,
            "baseline_hits": sum_path("model_cache", "baseline_hits"),
        },
        "engines": {
            "exact_cases": sum_path("engines", "exact_cases"),
            "approx_cases": sum_path("engines", "approx_cases"),
            "mean_ess": _weighted_mean(ess_pairs),
        },
        "incremental": {"memo_served": sum_path("incremental", "memo_served")},
        "sessions": {
            "opened": sum_path("sessions", "opened"),
            "closed": sum_path("sessions", "closed"),
            "evicted": sum_path("sessions", "evicted"),
            "open": sum_path("sessions", "open"),
            "updates": updates,
            "queries": sum_path("sessions", "queries"),
            "mean_delta_size": (
                _weighted_mean([(s["sessions"]["mean_delta_size"],
                                 s["sessions"]["updates"])
                                for s in snapshots
                                if s.get("sessions", {}).get("updates")])
                if updates else 0.0),
        },
        "stages": stages,
        "networks": networks,
    }
