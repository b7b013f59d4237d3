"""Asyncio inference server: JSON-lines over TCP.

One long-lived process keeps compiled models resident (the registry) and
coalesces concurrent queries (the micro-batcher).  The wire protocol is a
newline-delimited JSON request/response pair per operation:

    → {"id": 1, "op": "query", "network": "asia",
       "evidence": {"smoke": "yes", "xray": [0.7, 0.3]},
       "targets": ["lung"]}
    ← {"id": 1, "ok": true,
       "result": {"posteriors": {"lung": [0.1, 0.9]},
                  "log_evidence": -1.23, "served_by": "batch"}}

Scalar evidence values are hard observations, list values are soft
(likelihood) evidence.  Requests on one connection are handled
*concurrently* (each line spawns a task; responses carry the request
``id``), so a single client can pipeline requests — which is exactly what
lets the micro-batcher coalesce them.

``query``/``query_batch``/``info`` accept an ``"engine"`` field
(``"exact"``, ``"approx"`` or ``"auto"``, default: the registry policy).
Answers served by the sampling engine carry their uncertainty — ``ess``,
per-target ``stderr`` vectors, ``num_samples`` and (Gibbs) ``r_hat`` —
next to the posteriors, and the response's ``engine`` field always states
which engine class actually answered, so clients can assert the planner's
routing decision.

The operations and their request fields are the rows of
:data:`repro.service.ops.OPS` (all but the router-only ``cluster_*``
rows); each is answered by the ``_op_<name>`` method below.  A request
without ``op`` is a ``query``; an unknown op, or a field of the wrong
type, is rejected before any work with the error class its row names.
``trace_dump`` returns Chrome trace-event JSON (``fastbni trace
out.json`` writes it to a file for Perfetto).

Tracing (:mod:`repro.obs`): with ``trace_sample_rate > 0`` every
``round(1/rate)``-th request carries a span tree through
``parse → registry lookup → queue wait → cache pre-pass → execute →
serialize`` and down into the kernel layer; the slow-query log runs for
every request regardless of sampling.  ``trace_sample_rate=0`` plus
``trace_slow_log=0`` strips even the slow-log bookkeeping (the
benchmark-baseline configuration).

Streaming sessions (:mod:`repro.service.sessions`) hold evolving
evidence server-side: ``session_open`` starts one, ``session_update``
applies an edit (merge/retract/replace; ``targets`` reads the fresh
posteriors in the same round trip), ``session_query`` reads,
``session_close`` releases it.  Updates on one session apply in arrival
order even when pipelined; a read runs where a fill-1 flush would.  An
evicted or closed session fails with a ``SessionError`` whose
``error.code`` is ``"session_closed"`` (``"session_unknown"`` for ids
this server never issued).

A ``query`` response's ``served_by`` field says how it was answered:
``"batch"`` (a vectorised flush), ``"cache"`` (an exact repeat answered
by the result memo, :mod:`repro.service.cache`, when the registry has it
enabled — the default), ``"single"`` (soft evidence, per case) or
``"baseline"`` (no evidence: the resident prior).  Session reads say
``"session"``.

Failures map onto the :mod:`repro.errors` hierarchy: the response's
``error.type`` is the exception class name (``EvidenceError``,
``NetworkError``, ...), so programmatic clients can branch without string
matching; malformed JSON reports as ``ParseError``.
"""

from __future__ import annotations

import asyncio
import json
import math
import time

import numpy as np
import orjson

from repro.approx.engine import ApproxInferenceResult
from repro.errors import (EvidenceError, ParseError, QueryError, ReproError,
                          ServiceError)
from repro.exec.engine_api import CAPABILITIES_BY_KIND
from repro.jt.evidence_soft import split_evidence
from repro.obs import (DEFAULT_SLOW_THRESHOLD_MS, Tracer, chrome_trace,
                       render_prometheus)
from repro.obs.trace import DEFAULT_MAX_TRACES, DEFAULT_SLOW_LOG
from repro.service.batcher import (DEFAULT_MAX_BATCH, MicroBatcher,
                                   QueryRequest, runs_inline)
from repro.service.metrics import ServiceMetrics
from repro.service.ops import LOCAL, OPS, ROUTER, Op, lookup
from repro.service.registry import ModelRegistry
from repro.service.sessions import (DEFAULT_IDLE_TTL_S, DEFAULT_MAX_SESSIONS,
                                    SessionManager)

DEFAULT_PORT = 7421

#: The ops a lone server answers: every table row but the router's own.
_SERVED = {name: row for name, row in OPS.items() if row.route != ROUTER}

#: Per-line read limit: a query_batch of a few thousand cases fits easily.
_STREAM_LIMIT = 16 * 1024 * 1024


def _default(obj):
    """What orjson's NumPy path refuses: a non-contiguous or 0-d array, an
    unsupported dtype or scalar (``float16``, ``str_`` arrays)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Type is not JSON serializable: {type(obj).__name__}")


def encode_line(payload) -> bytes:
    """``payload`` as one JSON line in one native pass: NumPy arrays and
    scalars as they are, NaN/±inf as ``null``, shortest round-trip floats.

    Raises ``TypeError`` on what JSON cannot carry: an int outside the
    64-bit range, a non-``str`` dict key, any other Python type.  An
    ndarray's buffer is read as native-endian, as every engine writes it.
    """
    return orjson.dumps(payload, default=_default, option=(
        orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE))


def _result_fields(result) -> dict:
    """Engine-class + uncertainty fields shared by query/query_batch."""
    fields = {"engine": "exact"}
    if isinstance(result, ApproxInferenceResult):
        fields = {
            "engine": "approx",
            "method": result.method,
            "ess": result.ess,
            "stderr": result.stderr,
            "num_samples": result.num_samples,
        }
        if math.isfinite(result.r_hat):
            fields["r_hat"] = result.r_hat
    return fields


class JsonLinesFront:
    """The connection side shared by :class:`InferenceServer` and the
    cluster router: one task per request line (so a client can pipeline),
    writes serialized per connection, and an InternalError reply when a
    payload will not serialize.  Subclasses answer a line in
    ``_handle_line`` and keep the ``_writers`` / ``_conn_tasks`` sets.
    """

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, OSError):
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(writer, write_lock, {
                        "id": None, "ok": False,
                        "error": {"type": "ParseError",
                                  "message": "request line too long"},
                    })
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            self._writers.discard(writer)
            if conn_task is not None:
                self._conn_tasks.discard(conn_task)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _encode(payload: dict) -> bytes:
        """Serialize a response payload to one wire line (:func:`encode_line`).

        Last line of defence: serialization runs *after* the dispatch
        error handling, so a payload the encoder rejects (an unknown
        type, an ``id`` of 2**70 that ``json.loads`` accepted) would
        otherwise drop the response and leave the client waiting
        forever.  Answer the request id with an InternalError instead,
        encoded by the stdlib, which writes any int.
        """
        try:
            return encode_line(payload)
        except (TypeError, ValueError) as exc:
            return json.dumps({
                "id": payload.get("id"), "ok": False,
                "error": {"type": "InternalError",
                          "message": ("response not serializable: "
                                      f"{type(exc).__name__}: {exc}")},
            }, allow_nan=False).encode() + b"\n"

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, lock: asyncio.Lock,
                    data: bytes) -> None:
        async with lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; nothing to deliver the result to

    async def _write(self, writer: asyncio.StreamWriter, lock: asyncio.Lock,
                     payload: dict) -> None:
        await self._send(writer, lock, self._encode(payload))


class InferenceServer(JsonLinesFront):
    """TCP front end over a :class:`ModelRegistry` + :class:`MicroBatcher`.

    Constructing the server builds (or adopts) the registry and batcher;
    :meth:`start` binds the socket (``port=0`` picks an ephemeral port and
    updates ``self.port``), :meth:`serve_forever` blocks until cancelled,
    :meth:`stop` drains the batcher and closes everything this server owns.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
                 registry: ModelRegistry | None = None,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 metrics: ServiceMetrics | None = None,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 session_ttl_s: float = DEFAULT_IDLE_TTL_S,
                 tracer: Tracer | None = None,
                 trace_sample_rate: float = 0.0,
                 trace_buffer: int = DEFAULT_MAX_TRACES,
                 trace_slow_ms: float = DEFAULT_SLOW_THRESHOLD_MS,
                 trace_slow_log: int = DEFAULT_SLOW_LOG,
                 worker_id: str | None = None,
                 **registry_options) -> None:
        self.host = host
        self.port = port
        #: Cluster identity: set by :mod:`repro.cluster.worker` so health
        #: responses and metrics snapshots name the process they describe.
        self.worker_id = worker_id
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        #: ``tracer`` adopts an external tracer; otherwise one is built
        #: from the ``trace_*`` knobs.  With ``trace_sample_rate=0`` and
        #: ``trace_slow_log=0`` the tracer never allocates a context or
        #: takes a lock — the benchmark-baseline configuration.
        self.tracer = tracer if tracer is not None else Tracer(
            trace_sample_rate, max_traces=trace_buffer,
            slow_threshold_ms=trace_slow_ms, slow_log=trace_slow_log)
        self._owns_registry = registry is None
        self.registry = (registry if registry is not None
                         else ModelRegistry(metrics=self.metrics,
                                            **registry_options))
        self.batcher = MicroBatcher(self.registry, max_batch=max_batch,
                                    metrics=self.metrics)
        self.sessions = SessionManager(self.registry,
                                       max_sessions=max_sessions,
                                       idle_ttl_s=session_ttl_s,
                                       metrics=self.metrics)
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        #: Graceful-drain state: once set, work ops are rejected with
        #: ``error.code == "draining"`` while introspection ops (health,
        #: stats, metrics, ...) keep answering.  ``_idle`` is set whenever
        #: no request line is being processed, so drain() can await it.
        self._draining = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------- lifecycle
    def preload(self, names) -> None:
        """Compile models before accepting traffic (cold-start avoidance)."""
        for name in names:
            self.registry.get(name)

    async def start(self) -> "InferenceServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_STREAM_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful drain: stop accepting work, let in-flight finish.

        Closes the listener, flips the server into draining mode (new
        work ops are rejected with ``error.code == "draining"`` so
        retrying clients move elsewhere) and waits for every request
        already being processed to complete.  Established connections
        stay open — pipelined responses still go out, and introspection
        ops keep answering — so callers normally follow with
        :meth:`stop` once this returns.  Returns ``True`` if in-flight
        work hit zero within ``timeout_s`` (``None`` = wait forever).
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        try:
            await asyncio.wait_for(self._idle.wait(), timeout_s)
        except asyncio.TimeoutError:
            return False
        return True

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing the listener leaves established connections open; close
        # them so their handler tasks exit on EOF instead of cancellation.
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        await self.batcher.aclose()
        # Sessions drop their registry pins before the registry closes so
        # the entries they pinned actually release.
        self.sessions.close_all()
        if self._owns_registry:
            self.registry.close()

    async def _handle_line(self, line: bytes, writer: asyncio.StreamWriter,
                           lock: asyncio.Lock) -> None:
        self._inflight += 1
        self._idle.clear()
        try:
            await self._handle_line_inner(line, writer, lock)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    async def _handle_line_inner(self, line: bytes,
                                 writer: asyncio.StreamWriter,
                                 lock: asyncio.Lock) -> None:
        request_id = None
        op = "invalid"
        network = None
        start = time.monotonic()
        # Sampling decision up front (the op is not known until the line
        # parses; the root span's op attribute is stamped in finish()).
        ctx = self.tracer.maybe_trace()
        ok = False
        try:
            parse_start = time.perf_counter()
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"request is not valid JSON: {exc}") from None
            if not isinstance(request, dict):
                raise ParseError("request must be a JSON object")
            parse_end = time.perf_counter()
            self.metrics.observe_stage("parse", parse_end - parse_start)
            if ctx is not None:
                ctx.record("parse", parse_start, parse_end,
                           request_bytes=len(line))
            request_id = request.get("id")
            row = lookup(request.get("op", "query"), _SERVED)
            op = row.name
            raw_network = request.get("network")
            network = raw_network if isinstance(raw_network, str) else None
            result = await self._dispatch(row, request, trace=ctx)
            ok = True
            payload = {"id": request_id, "ok": True, "result": result}
        except ReproError as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
            # SessionError carries a machine-readable code
            # ("session_closed" / "session_unknown") for client branching.
            code = getattr(exc, "code", None)
            if code is not None:
                error["code"] = code
            payload = {"id": request_id, "ok": False, "error": error}
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            payload = {"id": request_id, "ok": False,
                       "error": {"type": "InternalError",
                                 "message": f"{type(exc).__name__}: {exc}"}}
        ser_start = time.perf_counter()
        data = self._encode(payload)
        ser_end = time.perf_counter()
        self.metrics.observe_stage("serialize", ser_end - ser_start)
        if ctx is not None:
            ctx.record("serialize", ser_start, ser_end,
                       response_bytes=len(data))
        latency = time.monotonic() - start
        self.metrics.observe_request(op, latency, ok=ok)
        self.tracer.finish(ctx, op=op, network=network,
                           latency_s=latency, ok=ok)
        await self._send(writer, lock, data)

    # --------------------------------------------------------------- dispatch
    async def _dispatch(self, row: Op, request: dict, trace=None) -> dict:
        if self._draining and not row.drain_safe:
            raise ServiceError("server is draining; retry against another "
                               "instance", code="draining")
        handler = getattr(self, f"_op_{row.name}")
        if row.route == LOCAL:
            return handler()
        return await handler(**row.parse(request), trace=trace)

    async def _op_query(self, network: str, evidence=None, soft_evidence=None,
                        targets=(), engine=None, trace=None) -> dict:
        hard, soft = split_evidence(evidence or {})
        soft.update(soft_evidence or {})
        query = QueryRequest(evidence=hard, targets=targets,
                             soft_evidence=soft or None, engine=engine,
                             trace=trace)
        result = await self.batcher.submit(network, query)
        approx = isinstance(result, ApproxInferenceResult)
        # A memo hit is stamped "cache" in result.meta; everything else
        # is classified by the request's evidence.
        served_by = result.meta.get("served_by") if result.meta else None
        if served_by is None:
            served_by = ("single" if soft and not approx
                         else "baseline" if not hard and not soft
                         else "batch")
        return {
            "posteriors": result.posteriors,
            "log_evidence": result.log_evidence,
            "served_by": served_by,
            **_result_fields(result),
        }

    async def _op_query_batch(self, network: str, cases: list, targets=(),
                              engine=None, trace=None) -> dict:
        # Atomic lookup + pin: a separate get-then-pin leaves a window in
        # which a concurrent cold load can evict this entry and close its
        # engine before the pin lands.
        entry = await self.batcher.get_entry_pinned(network, engine)
        try:
            parsed = []
            for i, case in enumerate(cases):
                if not isinstance(case, dict):
                    raise EvidenceError(f"cases[{i}] must be a JSON object, "
                                        f"got {type(case).__name__}")
                hard, soft = split_evidence(case)
                if soft:
                    raise EvidenceError(
                        f"cases[{i}] carries soft evidence; the explicit "
                        "batch path is hard-evidence only — send it as a "
                        "single query"
                    )
                entry.engine.validate_case(hard)
                parsed.append(hard)
            result = await self.batcher.run_blocking(
                lambda: entry.engine.infer_cases(parsed, targets=targets))
            self.metrics.observe_explicit_batch(len(parsed))
            case_payloads = []
            for i in range(len(result)):
                case = result.case(i)
                self.metrics.observe_engine(
                    entry.engine_kind,
                    ess=(case.ess if isinstance(case, ApproxInferenceResult)
                         else None))
                case_payloads.append({
                    "posteriors": case.posteriors,
                    "log_evidence": case.log_evidence,
                    **_result_fields(case),
                })
        finally:
            self.registry.unpin(entry)
        return {"count": len(result), "cases": case_payloads}

    async def _op_mpe(self, network: str, evidence=None, engine=None,
                      trace=None) -> dict:
        from repro.jt.mpe import most_probable_explanation

        hard, soft = split_evidence(evidence or {})
        if soft:
            raise EvidenceError("mpe supports hard evidence only")
        # Resolve the routing *before* loading: a model routed to an
        # engine class without MPE support must be rejected from the cheap
        # fill-in estimate, not after paying the sampling-engine load (and
        # possibly evicting a hot exact entry).
        kind = engine if engine is not None else self.registry.planner.policy
        if kind == "auto":
            kind = (await self.batcher.run_blocking(
                lambda: self.registry.plan_for(network))).engine
        if not CAPABILITIES_BY_KIND[kind].supports_mpe:
            raise QueryError(
                "mpe needs the exact junction-tree engine but "
                f"{network!r} is served approximately "
                "(send engine='exact' to force an exact compile)"
            )
        # Pinned for the whole run: MPE holds entry.engine.tree across an
        # executor round trip, and an unpinned entry can be LRU-evicted
        # (engine closed) by any concurrent cold load in that window.
        entry = await self.batcher.get_entry_pinned(network, kind)
        try:
            entry.engine.validate_case(hard)
            assignment, log_p = await self.batcher.run_blocking(
                lambda: most_probable_explanation(entry.engine.tree, hard))
            return {
                "assignment": {name: entry.net.variable(name).states[idx]
                               for name, idx in assignment.items()},
                "log_probability": log_p,
            }
        finally:
            self.registry.unpin(entry)

    async def _op_info(self, network: str, engine=None, trace=None) -> dict:
        entry = await self.batcher.get_entry_pinned(network, engine)
        try:
            return self._info_payload(entry)
        finally:
            self.registry.unpin(entry)

    @staticmethod
    def _info_payload(entry) -> dict:
        exec_plan = getattr(entry.engine, "plan", None)
        info = {
            "network": entry.name,
            "variables": entry.net.num_variables,
            "engine": entry.engine_kind,
            "tree": entry.engine.stats(),
            "resident_bytes": entry.resident_bytes,
            "compiled_from_cache": entry.from_cache,
            # The active whole-message kernel backend and the compiled
            # plan's arena footprint (None for engines without a plan).
            "kernels": getattr(getattr(entry.engine, "kernels", None),
                               "name", None),
            "plan_arena_bytes": (exec_plan.arena_bytes
                                 if exec_plan is not None else None),
        }
        if entry.plan is not None:
            est = entry.plan.estimate
            info["plan"] = {
                "policy": entry.plan.policy,
                "reason": entry.plan.reason,
                "fill_in_width": est.width,
                "estimated_table_bytes": est.total_table_bytes,
                "log10_max_clique": est.log10_max_clique,
            }
        return info

    # --------------------------------------------------------------- sessions
    async def _session_op(self, session_id: str, fn):
        """Run one session-manager call where :func:`runs_inline` puts
        its session's reads.  Every op of a session runs in that one
        place, reached in arrival order, and the flush worker is FIFO: so
        pipelined ops apply in arrival order with no per-session state.
        An id that is not live fails at once, on the loop."""
        entry = self.sessions.entry(session_id)
        return await self.batcher.run_blocking(
            fn, inline=entry is None or runs_inline(entry))

    async def _op_session_open(self, network: str, evidence=None,
                               engine=None, trace=None) -> dict:
        # A cold model compiles off the loop, exactly as a query's does.
        entry = await self.batcher.get_entry_pinned(network, engine)
        return self.sessions.open(network, evidence=evidence, engine=engine,
                                  trace=trace, pinned=entry)

    async def _op_session_update(self, session: str, evidence=None,
                                 retract=(), replace=False, targets=None,
                                 trace=None) -> dict:
        # "targets" present (even []) = read posteriors in the same round
        # trip; absent = apply the edit only.
        return await self._session_op(
            session, lambda: self.sessions.update(
                session, evidence=evidence, retract=retract,
                replace=replace, targets=targets, trace=trace))

    async def _op_session_query(self, session: str, targets=(),
                                trace=None) -> dict:
        return await self._session_op(
            session, lambda: self.sessions.query(session, targets=targets,
                                                 trace=trace))

    async def _op_session_close(self, session: str, trace=None) -> dict:
        return await self._session_op(
            session, lambda: self.sessions.close(session))

    def _op_health(self) -> dict:
        payload = {
            "status": "draining" if self._draining else "ok",
            # Same clock as stats.uptime_s (the metrics clock), so the
            # two endpoints cannot disagree after a stats_reset.
            "uptime_s": self.metrics.uptime_s(),
            "models": list(self.registry.loaded()),
        }
        if self.worker_id is not None:
            payload["worker_id"] = self.worker_id
        return payload

    def _op_stats(self) -> dict:
        snapshot = self.metrics.snapshot()
        snapshot["registry"] = self.registry.stats()
        snapshot["batcher"] = {"max_batch": self.batcher.max_batch}
        snapshot["sessions"]["table"] = self.sessions.stats()
        snapshot["tracing"] = self.tracer.stats()
        if self.worker_id is not None:
            snapshot["worker_id"] = self.worker_id
        return snapshot

    def _op_metrics(self) -> dict:
        """The full stats snapshot rendered as Prometheus exposition text.

        Wrapped in the normal JSON envelope (this is a TCP op, not HTTP):
        the ``text`` field is what a scraper sidecar would serve verbatim
        at ``/metrics``; ``fastbni client --op metrics`` prints it raw.
        """
        return {
            "content_type": "text/plain; version=0.0.4",
            "text": render_prometheus(self._op_stats()),
        }

    def _op_slow_queries(self) -> dict:
        """The bounded top-K slow-query log, slowest first."""
        entries = self.tracer.slow_queries()
        return {
            "threshold_ms": self.tracer.slow_threshold_ms,
            "count": len(entries),
            "slow_queries": entries,
        }

    def _op_trace_dump(self) -> dict:
        """Buffered sampled traces as a Chrome trace-event document."""
        traces = self.tracer.traces()
        dump = chrome_trace(traces)
        dump["traceCount"] = len(traces)
        return dump

    def _op_stats_reset(self) -> dict:
        """Zero the metrics counters (registry residency is untouched)."""
        self.metrics.reset()
        return {"reset": True}

    def _op_cache_stats(self) -> dict:
        """Per-model result-memo statistics plus serving totals."""
        stats = self.registry.cache_stats()
        stats["served"] = self.metrics.snapshot()["incremental"]
        return stats


async def run_server(host: str, port: int, *, preload=(),
                     on_ready=None, drain_timeout_s: float = 30.0,
                     **options) -> None:
    """Start a server and serve until cancelled (the ``fastbni serve`` body).

    Exception-safe from construction to stop: constructing the server
    spins up the batcher's flush worker thread and possibly a registry,
    so a failing ``preload`` (bad model name) or
    ``start`` (port already bound) must still tear everything down —
    otherwise every failed launch leaks non-daemon threads and resident
    compiled models.  The original exception propagates to the caller.

    SIGTERM/SIGINT trigger a graceful drain (stop accepting, reject new
    work with ``error.code == "draining"``, finish in-flight up to
    ``drain_timeout_s``, flush the batcher, close sessions/registry)
    instead of abandoning in-flight futures — this is what lets the
    cluster supervisor restart workers without failing the requests they
    were holding.  Handler installation is best-effort: event loops in
    non-main threads (the test harness) cannot install signal handlers,
    and there the caller cancels the task instead.
    """
    import signal

    server = InferenceServer(host, port, **options)
    stop_requested = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[int] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_requested.set)
            installed.append(signum)
        except (ValueError, NotImplementedError, RuntimeError,
                AttributeError):  # pragma: no cover - platform dependent
            break
    try:
        server.preload(preload)
        await server.start()
        if on_ready is not None:
            on_ready(server)
        serve = asyncio.ensure_future(server.serve_forever())
        stopper = asyncio.ensure_future(stop_requested.wait())
        try:
            await asyncio.wait({serve, stopper},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (serve, stopper):
                task.cancel()
            await asyncio.gather(serve, stopper, return_exceptions=True)
        if stop_requested.is_set():
            await server.drain(drain_timeout_s)
        elif serve.done() and not serve.cancelled() and serve.exception():
            raise serve.exception()
    except asyncio.CancelledError:
        pass
    finally:
        for signum in installed:
            try:
                loop.remove_signal_handler(signum)
            except (ValueError, RuntimeError):  # pragma: no cover
                pass
        await server.stop()
