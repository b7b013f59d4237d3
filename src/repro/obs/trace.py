"""Request tracing: spans, sampling, the slow-query log, Chrome export.

Every perf PR so far has justified itself with an end-to-end number
(``BENCH_*.json``); none of them could say *where inside a request* the
time went.  This module is the decomposition instrument: a sampled
request carries a :class:`TraceContext` through the server's stages
(``parse → registry lookup → batcher queue → cache pre-pass →
flush/engine → serialize``) and each stage records a :class:`Span` —
monotonic start/end, a parent link, and free-form attributes (batch
fill, kernel backend, evidence-delta size, ESS, ...).

Three consumers:

* **trace buffer** — the most recent sampled traces, exported as Chrome
  trace-event JSON (:func:`chrome_trace`) so a captured window opens
  directly in ``chrome://tracing`` / Perfetto (``fastbni trace out.json``
  or the ``trace_dump`` wire op);
* **slow-query log** — a bounded top-K of the slowest requests over a
  latency threshold, kept for *every* request (tracing sampled or not),
  so "what was that 2-second outlier" is answerable after the fact
  (``slow_queries`` op);
* **per-stage histograms** — stage durations also feed
  :meth:`repro.service.metrics.ServiceMetrics.observe_stage`, the
  always-on aggregate view (the Prometheus exposition renders them).

Overhead discipline: sampling is deterministic (every ``round(1/rate)``-th
request) so the off-path cost of ``maybe_trace`` is one integer check and
no RNG; with ``sample_rate=0`` no context is ever allocated, and the slow
log only takes its lock after a plain float comparison says the request
qualifies.  ``BENCH_obs.json`` (``fastbni obsbench``) tracks both
overheads and ``tools/check_bench.py --obs`` guards them in CI.

The kernel-hook bridge (:func:`install_kernel_hooks` /
:func:`current_kernel_hooks`) is how a trace reaches *inside* the
execution layer without threading a parameter through every engine:
:func:`repro.exec.kernels.run_message_schedule`, the batched
calibration and the native whole-case call consult a thread-local for
an active :class:`ScheduleRecorder`, so kernel timings surface in the
flush span only when someone is watching — without changing which code
runs: a native whole case reports its one foreign call, the staged
numpy path its message passes and clique absorptions.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import QueryError

#: Sampled traces kept in the ring buffer (the ``trace_dump`` window).
DEFAULT_MAX_TRACES = 256
#: Slow-query log size (top-K over the threshold).
DEFAULT_SLOW_LOG = 32
#: Latency threshold (ms) above which a request enters the slow log.
DEFAULT_SLOW_THRESHOLD_MS = 100.0


@dataclass
class Span:
    """One timed stage of a request: name, window, parent link, attributes.

    ``start``/``end`` are monotonic (``time.perf_counter``) seconds;
    ``end == 0.0`` marks a span still open.  Attributes are small
    JSON-able scalars (counts, byte sizes, backend names) — never large
    payloads, the buffer is resident.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float = 0.0
    attributes: dict = field(default_factory=dict)

    def duration_s(self) -> float:
        return max(self.end - self.start, 0.0) if self.end else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration_ms": self.duration_s() * 1e3,
            "attributes": dict(self.attributes),
        }


class TraceContext:
    """Span recorder for one sampled request.

    Created by :meth:`Tracer.maybe_trace` with a root ``request`` span
    already open; stages attach via :meth:`span` (a context manager),
    :meth:`start_span`/:meth:`end_span` (explicit, for spans that open
    and close in different callbacks — the batcher's queue wait), or
    :meth:`record` (explicit timestamps, for flush-level windows shared
    by every coalesced request).  Append-only under a lock: spans are
    recorded from the event loop and executor threads alike.
    """

    __slots__ = ("trace_id", "root", "spans", "_ids", "_lock", "_clock")

    def __init__(self, trace_id: int, op: str = "request",
                 clock=time.perf_counter) -> None:
        self.trace_id = trace_id
        self._clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.root = Span(name="request", span_id=0, parent_id=None,
                         start=clock(), attributes={"op": op})
        self.spans: list[Span] = [self.root]

    def start_span(self, name: str, parent: Span | None = None,
                   **attributes) -> Span:
        """Open a span now; close it with :meth:`end_span`."""
        span = Span(name=name, span_id=next(self._ids),
                    parent_id=(parent or self.root).span_id,
                    start=self._clock(), attributes=attributes)
        with self._lock:
            self.spans.append(span)
        return span

    def end_span(self, span: Span, **attributes) -> Span:
        span.end = self._clock()
        if attributes:
            span.attributes.update(attributes)
        return span

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attributes):
        """``with ctx.span("parse"):`` — the common single-scope stage."""
        span = self.start_span(name, parent=parent, **attributes)
        try:
            yield span
        finally:
            self.end_span(span)

    def record(self, name: str, start: float, end: float,
               parent: Span | None = None, **attributes) -> Span:
        """Record a span from explicit monotonic timestamps.

        For windows measured once and shared by several requests (the
        cache pre-pass and vectorised flush cover a whole batch): each
        coalesced trace records the same window under its own tree.
        """
        span = Span(name=name, span_id=next(self._ids),
                    parent_id=(parent or self.root).span_id,
                    start=start, end=end, attributes=attributes)
        with self._lock:
            self.spans.append(span)
        return span

    def stage_total_s(self, names: tuple[str, ...]) -> float:
        """Summed duration of the named root-child stages (diagnostics)."""
        with self._lock:
            return sum(s.duration_s() for s in self.spans if s.name in names)

    def to_dict(self) -> dict:
        with self._lock:
            spans = [s.to_dict() for s in self.spans]
        return {"trace_id": self.trace_id, "op": self.root.attributes.get("op"),
                "duration_ms": self.root.duration_s() * 1e3, "spans": spans}


class Tracer:
    """Sampling trace collector + slow-query log for one server.

    ``sample_rate`` ∈ [0, 1] picks every ``round(1/rate)``-th request
    deterministically (0 disables tracing entirely; no context is
    allocated off-sample).  The slow-query log is independent of
    sampling: every finished request is compared against
    ``slow_threshold_ms`` and the top ``slow_log`` slowest qualifying
    requests are kept (with their span tree when the request happened to
    be sampled).  All methods are thread-safe.
    """

    def __init__(self, sample_rate: float = 0.0, *,
                 max_traces: int = DEFAULT_MAX_TRACES,
                 slow_log: int = DEFAULT_SLOW_LOG,
                 slow_threshold_ms: float = DEFAULT_SLOW_THRESHOLD_MS,
                 clock=time.perf_counter) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise QueryError(
                f"trace sample rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.slow_threshold_ms = slow_threshold_ms
        self._period = round(1.0 / sample_rate) if sample_rate > 0 else 0
        self._clock = clock
        self._lock = threading.Lock()
        self._seen = 0
        self._sampled = 0
        self._trace_ids = itertools.count(1)
        self._traces: deque[dict] = deque(maxlen=max_traces)
        self._slow_size = slow_log
        #: Min-heap of (latency_ms, seq, entry): the smallest qualifying
        #: latency is evicted first once the log is full.
        self._slow: list[tuple[float, int, dict]] = []
        self._slow_seq = itertools.count()

    # ------------------------------------------------------------- sampling
    @property
    def enabled(self) -> bool:
        """Whether any request can be sampled (``sample_rate > 0``)."""
        return self._period > 0

    def maybe_trace(self, op: str = "request") -> TraceContext | None:
        """A fresh context for a sampled request, else ``None`` (the
        common case — one lock-free check when tracing is off)."""
        if self._period == 0:
            return None
        with self._lock:
            self._seen += 1
            if self._seen % self._period:
                return None
            self._sampled += 1
        return TraceContext(next(self._trace_ids), op=op, clock=self._clock)

    def finish(self, ctx: TraceContext | None, *, op: str,
               latency_s: float, ok: bool = True,
               network: str | None = None) -> None:
        """Close out one finished request (sampled or not).

        Ends the root span and buffers the trace when ``ctx`` is given;
        independently, files the request into the slow-query log when its
        latency clears the threshold.
        """
        if ctx is not None:
            ctx.root.end = self._clock()
            ctx.root.attributes.update({"op": op, "ok": ok,
                                        "latency_ms": latency_s * 1e3})
            if network is not None:
                ctx.root.attributes["network"] = network
            with self._lock:
                self._traces.append(ctx.to_dict())
        latency_ms = latency_s * 1e3
        if self._slow_size <= 0 or latency_ms < self.slow_threshold_ms:
            return
        entry = {
            "op": op,
            "network": network,
            "latency_ms": latency_ms,
            "ok": ok,
            "unix_time": time.time(),
            "trace": ctx.to_dict() if ctx is not None else None,
        }
        with self._lock:
            item = (latency_ms, next(self._slow_seq), entry)
            if len(self._slow) < self._slow_size:
                heapq.heappush(self._slow, item)
            elif latency_ms > self._slow[0][0]:
                heapq.heapreplace(self._slow, item)

    # ------------------------------------------------------------ consumers
    def traces(self) -> list[dict]:
        """The buffered sampled traces, oldest first (JSON-ready)."""
        with self._lock:
            return list(self._traces)

    def slow_queries(self) -> list[dict]:
        """Slow-log entries, slowest first (JSON-ready)."""
        with self._lock:
            entries = [entry for _, _, entry in self._slow]
        return sorted(entries, key=lambda e: -e["latency_ms"])

    def chrome_trace(self) -> dict:
        """The buffered traces as a Chrome trace-event JSON document."""
        return chrome_trace(self.traces())

    def stats(self) -> dict:
        """JSON-ready tracer counters (the ``stats.tracing`` section)."""
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "requests_seen": self._seen,
                "traces_sampled": self._sampled,
                "traces_buffered": len(self._traces),
                "slow_threshold_ms": self.slow_threshold_ms,
                "slow_entries": len(self._slow),
            }

    def reset(self) -> None:
        """Drop buffered traces, the slow log, and the sampling counters."""
        with self._lock:
            self._seen = 0
            self._sampled = 0
            self._traces.clear()
            self._slow.clear()


def chrome_trace(traces: list[dict]) -> dict:
    """Convert trace dicts to the Chrome trace-event format.

    The result (``{"traceEvents": [...], "displayTimeUnit": "ms"}``)
    loads directly in ``chrome://tracing`` and `Perfetto
    <https://ui.perfetto.dev>`_: one complete (``"ph": "X"``) event per
    span, one thread row per request, timestamps rebased to the earliest
    span so the viewer opens at t=0.
    """
    events: list[dict] = []
    starts = [span["start"] for trace in traces for span in trace["spans"]]
    t0 = min(starts) if starts else 0.0
    for trace in traces:
        tid = trace["trace_id"]
        op = trace.get("op") or "request"
        for span in trace["spans"]:
            end = span["end"] or span["start"]
            events.append({
                "name": span["name"],
                "cat": op,
                "ph": "X",
                "ts": (span["start"] - t0) * 1e6,
                "dur": (end - span["start"]) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": span["attributes"],
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ------------------------------------------------------------- kernel hooks
class ScheduleRecorder:
    """Collects execution-layer timings for one engine call.

    Installed around an engine invocation with
    :func:`install_kernel_hooks`; :func:`repro.exec.kernels.
    run_message_schedule`, the batched calibration and the native
    whole-case call back into it.
    ``summary()`` is what the flush span attaches as attributes.
    """

    __slots__ = ("messages", "collect_s", "distribute_s", "absorb_s",
                 "absorb_cliques", "schedule_s", "backend", "arena_bytes",
                 "cases")

    def __init__(self) -> None:
        self.messages = 0
        self.collect_s = 0.0
        self.distribute_s = 0.0
        self.absorb_s = 0.0
        self.absorb_cliques = 0
        self.schedule_s = 0.0
        self.backend: str | None = None
        self.arena_bytes: int | None = None
        self.cases = 0

    def on_message(self, upward: bool, seconds: float) -> None:
        """One message pass (marginalize→normalize→ratio→absorb)."""
        self.messages += 1
        if upward:
            self.collect_s += seconds
        else:
            self.distribute_s += seconds

    def on_absorb(self, seconds: float, cliques: int) -> None:
        """One evidence-absorption pass over ``cliques`` clique tables."""
        self.absorb_s += seconds
        self.absorb_cliques += cliques

    def on_schedule(self, *, backend: str, messages: int, seconds: float,
                    arena_bytes: int | None = None, cases: int = 1) -> None:
        """One full two-phase calibration finished."""
        self.backend = backend
        self.messages = max(self.messages, messages)
        self.schedule_s += seconds
        self.arena_bytes = arena_bytes
        self.cases = max(self.cases, cases)

    def summary(self) -> dict:
        """JSON-able attribute dict for the owning span."""
        out = {
            "kernel_messages": self.messages,
            "kernel_ms": self.schedule_s * 1e3,
        }
        if self.collect_s or self.distribute_s:
            out["collect_ms"] = self.collect_s * 1e3
            out["distribute_ms"] = self.distribute_s * 1e3
        if self.absorb_cliques:
            out["absorb_ms"] = self.absorb_s * 1e3
            out["absorb_cliques"] = self.absorb_cliques
        if self.backend is not None:
            out["kernel_backend"] = self.backend
        if self.arena_bytes is not None:
            out["arena_bytes"] = self.arena_bytes
        if self.cases > 1:
            out["kernel_cases"] = self.cases
        return out


_hooks_local = threading.local()


def current_kernel_hooks() -> ScheduleRecorder | None:
    """The thread's active recorder, or ``None`` (the hot-path answer)."""
    return getattr(_hooks_local, "hooks", None)


@contextmanager
def install_kernel_hooks(hooks: ScheduleRecorder):
    """Make ``hooks`` visible to execution-layer code on this thread.

    The batcher wraps a *sampled* flush's engine call in this, so the
    engines underneath (which never see the trace context) still report
    their message-pass and absorption timings.  Re-entrant installs
    restore the previous recorder on exit.
    """
    previous = getattr(_hooks_local, "hooks", None)
    _hooks_local.hooks = hooks
    try:
        yield hooks
    finally:
        _hooks_local.hooks = previous
