"""Prometheus text exposition of a :class:`ServiceMetrics` snapshot.

:func:`render_prometheus` turns the ``stats`` dict into the `text-based
exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ — the
body of the ``metrics`` wire op (and ``fastbni client --op metrics``), so
a scraper sidecar can relay the service into any Prometheus/Grafana
stack without this repo importing a client library.

Rendering rules:

* every counter gets a ``fastbni_``-prefixed series with ``# HELP`` /
  ``# TYPE`` preamble;
* the batch-fill and per-stage histograms become *real* Prometheus
  histograms — cumulative ``le``-labelled buckets (the snapshot stores
  per-bucket counts; this module accumulates them), a ``+Inf`` bucket,
  and ``_sum``/``_count`` series — stage latencies in seconds per
  convention;
* latency percentiles render as a summary (``quantile`` labels), since
  they are computed server-side from the sliding reservoir.

Pure function over the snapshot dict: no lock, no server dependency, so
docs/tests can render a snapshot they built by hand.
"""

from __future__ import annotations


def _fmt(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels(labels: dict[str, object]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in labels.items())
    return "{" + body + "}"


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def header(self, name: str, help_text: str, kind: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value: float,
               labels: dict[str, object] | None = None) -> None:
        self.lines.append(f"{name}{_labels(labels or {})} {_fmt(value)}")

    def metric(self, name: str, help_text: str, kind: str, value: float,
               labels: dict[str, object] | None = None) -> None:
        self.header(name, help_text, kind)
        self.sample(name, value, labels)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _histogram(w: _Writer, name: str, help_text: str, *,
               edges: tuple, buckets: dict[str, int], count: int,
               total: float, labels: dict[str, object] | None = None,
               edge_scale: float = 1.0,
               emit_header: bool = True) -> None:
    """One histogram from per-bucket counts keyed ``le_<edge>``/``inf``.

    ``edge_scale`` converts stored edges to exposition units (the stage
    histograms store millisecond edges but expose seconds).
    """
    if emit_header:
        w.header(name, help_text, "histogram")
    labels = labels or {}
    cumulative = 0
    for edge in edges:
        cumulative += buckets.get(f"le_{edge:g}", 0)
        w.sample(f"{name}_bucket", cumulative,
                 {**labels, "le": f"{edge * edge_scale:g}"})
    w.sample(f"{name}_bucket", count, {**labels, "le": "+Inf"})
    w.sample(f"{name}_sum", total, labels)
    w.sample(f"{name}_count", count, labels)


def render_prometheus(snapshot: dict) -> str:
    """Render a :meth:`ServiceMetrics.snapshot` dict as exposition text."""
    # Imported here, not at module level: the service layer imports
    # repro.obs (batcher/server tracing), so a module-level import of
    # repro.service.metrics would close an import cycle.
    from repro.service.metrics import FILL_BUCKETS, STAGE_BUCKETS_MS

    w = _Writer()

    w.metric("fastbni_uptime_seconds",
             "Seconds since server start or the last stats_reset.",
             "gauge", snapshot["uptime_s"])

    requests = snapshot["requests"]
    w.metric("fastbni_requests_total", "Requests served (all endpoints).",
             "counter", requests["total"])
    w.metric("fastbni_request_errors_total", "Requests that returned an error.",
             "counter", requests["errors"])
    if requests["by_op"]:
        w.header("fastbni_requests_by_op_total", "Requests served, per wire op.",
                 "counter")
        for op, count in sorted(requests["by_op"].items()):
            w.sample("fastbni_requests_by_op_total", count, {"op": op})

    throughput = snapshot["throughput_rps"]
    w.header("fastbni_throughput_rps",
             "Requests per second (recent window and lifetime).", "gauge")
    w.sample("fastbni_throughput_rps", throughput["window"],
             {"window": "recent"})
    w.sample("fastbni_throughput_rps", throughput["lifetime"],
             {"window": "lifetime"})

    latency = snapshot["latency_ms"]
    w.header("fastbni_request_latency_seconds",
             "End-to-end request latency over the sliding reservoir.",
             "summary")
    for q in (50, 90, 99):
        w.sample("fastbni_request_latency_seconds",
                 latency[f"p{q}"] / 1e3, {"quantile": f"{q / 100:g}"})
    w.sample("fastbni_request_latency_seconds_sum",
             latency["mean"] / 1e3 * latency["count"])
    w.sample("fastbni_request_latency_seconds_count", latency["count"])

    batches = snapshot["batches"]
    _histogram(w, "fastbni_batch_fill",
               "Coalesced cases per vectorised micro-batcher flush.",
               edges=FILL_BUCKETS, buckets=batches["fill_hist"],
               count=batches["count"], total=batches["cases"])
    w.metric("fastbni_batch_fill_max", "Largest flush observed.", "gauge",
             batches["max_fill"])
    w.metric("fastbni_fallback_cases_total",
             "Cases served by the per-case fallback path.", "counter",
             batches["fallback_cases"])
    w.metric("fastbni_explicit_batches_total",
             "Client-assembled query_batch calls.", "counter",
             batches["explicit_count"])
    w.metric("fastbni_explicit_cases_total",
             "Cases inside client-assembled batches.", "counter",
             batches["explicit_cases"])

    cache = snapshot["model_cache"]
    w.header("fastbni_model_cache_lookups_total",
             "Model-registry lookups by outcome.", "counter")
    w.sample("fastbni_model_cache_lookups_total", cache["hits"],
             {"outcome": "hit"})
    w.sample("fastbni_model_cache_lookups_total", cache["misses"],
             {"outcome": "miss"})
    w.metric("fastbni_model_cache_hit_rate",
             "Fraction of registry lookups served resident.", "gauge",
             cache["hit_rate"])
    w.metric("fastbni_baseline_hits_total",
             "No-evidence queries answered from the calibrated baseline.",
             "counter", cache["baseline_hits"])

    engines = snapshot["engines"]
    w.header("fastbni_engine_cases_total", "Cases served, per engine class.",
             "counter")
    w.sample("fastbni_engine_cases_total", engines["exact_cases"],
             {"engine": "exact"})
    w.sample("fastbni_engine_cases_total", engines["approx_cases"],
             {"engine": "approx"})
    w.metric("fastbni_engine_mean_ess",
             "Mean effective sample size over approx-served queries.",
             "gauge", engines["mean_ess"])

    w.header("fastbni_cache_served_total",
             "Queries answered by the result memo.", "counter")
    w.sample("fastbni_cache_served_total",
             snapshot["incremental"]["memo_served"], {"tier": "memo"})

    sessions = snapshot["sessions"]
    w.header("fastbni_session_events_total",
             "Session lifecycle transitions.", "counter")
    for event in ("opened", "closed", "evicted"):
        w.sample("fastbni_session_events_total", sessions[event],
                 {"event": event})
    w.metric("fastbni_sessions_open", "Sessions currently open.", "gauge",
             sessions["open"])
    w.metric("fastbni_session_updates_total",
             "session_update calls applied.", "counter", sessions["updates"])
    w.metric("fastbni_session_queries_total",
             "Posterior reads served from session state.", "counter",
             sessions["queries"])
    w.metric("fastbni_session_mean_delta_size",
             "Mean evidence edits per session update.", "gauge",
             sessions["mean_delta_size"])

    stages = snapshot.get("stages", {})
    if stages:
        w.header("fastbni_stage_latency_seconds",
                 "Per-stage request latency (parse, queue wait, cache "
                 "lookup, execute, serialize).", "histogram")
        for stage, stats in sorted(stages.items()):
            _histogram(w, "fastbni_stage_latency_seconds", "",
                       edges=STAGE_BUCKETS_MS, buckets=stats["buckets"],
                       count=stats["count"], total=stats["sum_ms"] / 1e3,
                       labels={"stage": stage}, edge_scale=1e-3,
                       emit_header=False)

    networks = snapshot.get("networks")
    if networks:
        w.header("fastbni_network_requests_total",
                 "Requests routed, per model network.", "counter")
        for name, stats in sorted(networks.items()):
            w.sample("fastbni_network_requests_total", stats["total"],
                     {"network": name})
        w.header("fastbni_network_qps",
                 "Live requests/s per model network (short window; the "
                 "hot-replication signal).", "gauge")
        for name, stats in sorted(networks.items()):
            w.sample("fastbni_network_qps", stats["qps"], {"network": name})

    tracing = snapshot.get("tracing")
    if tracing:
        w.metric("fastbni_trace_sample_rate",
                 "Configured trace sampling rate.", "gauge",
                 tracing["sample_rate"])
        w.metric("fastbni_traces_sampled_total", "Requests sampled into "
                 "the trace buffer.", "counter", tracing["traces_sampled"])
        w.metric("fastbni_slow_queries", "Entries currently in the "
                 "slow-query log.", "gauge", tracing["slow_entries"])

    return w.text()


#: Per-worker series exposed by the cluster router: (metric suffix,
#: snapshot path, help text, type).  Distinct ``fastbni_worker_*`` names
#: — not a ``worker`` label on the single-process families — keep the
#: aggregate families' sample grouping valid while still giving one
#: scrape both cluster totals and per-worker breakdowns.
_WORKER_SERIES = (
    ("requests_total", ("requests", "total"),
     "Requests served by one cluster worker.", "counter"),
    ("request_errors_total", ("requests", "errors"),
     "Error responses from one cluster worker.", "counter"),
    ("throughput_rps", ("throughput_rps", "window"),
     "Recent-window requests/s of one cluster worker.", "gauge"),
    ("latency_p99_seconds", ("latency_ms", "p99"),
     "p99 request latency of one cluster worker.", "gauge"),
    ("sessions_open", ("sessions", "open"),
     "Sessions currently pinned to one cluster worker.", "gauge"),
)


def render_cluster_prometheus(aggregate: dict, workers: dict[str, dict],
                              router: dict | None = None) -> str:
    """Cluster exposition: totals + a ``worker``-labelled dimension.

    ``aggregate`` is the :func:`~repro.service.metrics.aggregate_snapshots`
    merge of every live worker's stats (rendered through the normal
    single-process families, so existing dashboards keep working at the
    router); ``workers`` maps worker id → that worker's own snapshot
    (``None``/missing counters render as 0 — a just-respawned worker is
    visible immediately).  ``router`` adds router-side gauges: healthy
    worker count, per-worker in-flight, restarts, ejections, sticky
    sessions.  One scrape at the router therefore answers both "what is
    the cluster doing" and "which worker is the outlier".
    """
    w = _Writer()
    w.lines.append(render_prometheus(aggregate).rstrip("\n"))

    def path(snap: dict, keys: tuple) -> float:
        node = snap
        for key in keys:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        return node if isinstance(node, (int, float)) else 0.0

    w.header("fastbni_worker_up",
             "1 if the worker answered its latest health probe.", "gauge")
    for worker_id in sorted(workers):
        w.sample("fastbni_worker_up", 1 if workers[worker_id] else 0,
                 {"worker": worker_id})
    for suffix, keys, help_text, kind in _WORKER_SERIES:
        name = f"fastbni_worker_{suffix}"
        w.header(name, help_text, kind)
        for worker_id in sorted(workers):
            snap = workers[worker_id] or {}
            value = path(snap, keys)
            if suffix == "latency_p99_seconds":
                value /= 1e3
            w.sample(name, value, {"worker": worker_id})

    if router:
        w.metric("fastbni_cluster_workers", "Configured worker count.",
                 "gauge", router.get("workers", len(workers)))
        w.metric("fastbni_cluster_workers_healthy",
                 "Workers currently routable.", "gauge",
                 router.get("healthy", 0))
        w.metric("fastbni_cluster_restarts_total",
                 "Worker processes respawned by the supervisor.", "counter",
                 router.get("restarts", 0))
        w.metric("fastbni_cluster_ejections_total",
                 "Workers ejected after failed health probes.", "counter",
                 router.get("ejections", 0))
        w.metric("fastbni_cluster_overloaded_total",
                 "Requests rejected with backpressure (overloaded).",
                 "counter", router.get("overloaded", 0))
        w.metric("fastbni_cluster_sticky_sessions",
                 "Live session→worker sticky-routing entries.", "gauge",
                 router.get("sticky_sessions", 0))
        inflight = router.get("inflight")
        if inflight is not None:
            w.header("fastbni_worker_inflight",
                     "Requests currently in flight at one worker (router "
                     "view).", "gauge")
            for worker_id in sorted(inflight):
                w.sample("fastbni_worker_inflight", inflight[worker_id],
                         {"worker": worker_id})

    return w.text()
