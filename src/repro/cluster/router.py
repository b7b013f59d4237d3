"""The cluster front router: one listener, N worker backends.

Speaks the exact JSON-lines protocol of :mod:`repro.service.server` —
clients cannot tell a router from a single server — and adds the
cluster-only ops ``cluster_stats`` (topology/placement introspection)
and ``cluster_drain`` (graceful shutdown, optionally exec-replacing the
process for live reload).

Routing rules (each op's class is its row in :data:`repro.service.ops.OPS`;
the router validates a row's fields before forwarding anything):

* **placed ops** (``query``/``query_batch``/``mpe``/``info``) hash the
  ``network`` field onto the consistent ring.  A model's replica set
  grows with its live QPS (:meth:`repro.service.metrics.ServiceMetrics.
  network_qps` at the router): every ``replicate_hot_qps`` of traffic
  earns one more replica, so a hot model spreads across workers while
  cold models stay single-homed and cache-warm.  Among candidate
  replicas the router picks the least-loaded; when every candidate's
  in-flight window is full the request is rejected with
  ``error.code == "overloaded"`` (bounded queues beat unbounded
  collapse — the client backs off and retries).
* **sticky ops** (``session_*`` after open) follow the session→worker
  map built from ``session_open`` responses: per-session incremental
  state lives on exactly one worker.  When that worker dies its sticky
  entries die with it (``code == "session_closed"``); sessions on
  surviving workers are untouched.
* **router ops** (``health``/``stats``/``metrics``/...) are answered by
  the router itself, fanning out to every healthy worker and
  aggregating (:func:`repro.service.metrics.aggregate_snapshots`,
  :func:`repro.obs.render_cluster_prometheus`).

Health probing: every ``probe_interval_s`` the router pings each worker;
``probe_failures`` consecutive misses (or a dropped backend connection)
ejects the worker — its ring membership is *filtered*, not removed, so
placement snaps back unchanged when the supervisor's respawn lands —
and a respawned worker rejoins the healthy set automatically.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

import orjson

from repro.cluster.placement import DEFAULT_VNODES, HashRing
from repro.cluster.supervisor import Supervisor
from repro.errors import ReproError, ServiceError
from repro.obs import render_cluster_prometheus
from repro.service.metrics import ServiceMetrics, aggregate_snapshots
from repro.service.ops import LOCAL, OPEN, ROUTER, STICKY, Op, lookup
from repro.service.server import (_STREAM_LIMIT, DEFAULT_PORT,
                                  JsonLinesFront, encode_line)

DEFAULT_MAX_INFLIGHT = 64
DEFAULT_REPLICATE_HOT_QPS = 50.0
DEFAULT_PROBE_INTERVAL_S = 1.0
DEFAULT_PROBE_TIMEOUT_S = 5.0
DEFAULT_PROBE_FAILURES = 3
DEFAULT_DRAIN_TIMEOUT_S = 30.0
#: Per-forwarded-call timeout: generous (cold compiles are slow) but
#: finite, so a wedged worker cannot pin router futures forever.
DEFAULT_CALL_TIMEOUT_S = 300.0


class WorkerHandle:
    """One multiplexed connection from the router to one worker.

    Client requests from many connections are funnelled over this single
    backend connection, pipelined with router-assigned correlation ids;
    the read loop demultiplexes responses back to their futures.  A
    dropped connection fails every pending future with
    ``code == "worker_lost"`` — the router maps that to a retry on
    another replica (placed ops) or a dead session (sticky ops).
    """

    def __init__(self, worker_id: str, host: str, port: int, *,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 call_timeout_s: float = DEFAULT_CALL_TIMEOUT_S) -> None:
        self.worker_id = worker_id
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.call_timeout_s = call_timeout_s
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._read_task: asyncio.Task | None = None
        self._write_lock = asyncio.Lock()
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self.connected = False

    @property
    def inflight(self) -> int:
        return len(self._pending)

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=_STREAM_LIMIT)
        self.connected = True
        self._read_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = orjson.loads(line)
                except json.JSONDecodeError:  # orjson's subclasses it
                    continue  # a torn line cannot be correlated; drop it
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, OSError, asyncio.LimitOverrunError,
                ValueError):
            pass
        finally:
            self.connected = False
            self._fail_pending("worker connection lost")

    def _fail_pending(self, reason: str) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ServiceError(
                    f"{self.worker_id}: {reason}", code="worker_lost"))

    async def call(self, op: str, body: dict,
                   timeout_s: float | None = None) -> dict:
        """Forward one request; return the worker's response envelope."""
        if not self.connected or self._writer is None:
            raise ServiceError(f"{self.worker_id}: not connected",
                               code="worker_lost")
        self._next_id += 1
        correlation = self._next_id
        payload = dict(body)
        payload["id"] = correlation
        payload["op"] = op
        line = encode_line(payload)  # raises before anything is pending
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[correlation] = future
        try:
            async with self._write_lock:
                self._writer.write(line)
                await self._writer.drain()
            return await asyncio.wait_for(
                future, timeout_s if timeout_s is not None
                else self.call_timeout_s)
        except (ConnectionError, OSError) as exc:
            self._pending.pop(correlation, None)
            self.connected = False
            raise ServiceError(f"{self.worker_id}: send failed: {exc}",
                               code="worker_lost") from None
        except asyncio.TimeoutError:
            self._pending.pop(correlation, None)
            raise ServiceError(
                f"{self.worker_id}: no response within "
                f"{timeout_s or self.call_timeout_s:.0f}s",
                code="worker_lost") from None

    async def close(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._read_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self.connected = False
        self._fail_pending("router closed the connection")


class ClusterRouter(JsonLinesFront):
    """Front process: accepts clients, routes to workers, supervises."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
                 supervisor: Supervisor,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 replicate_hot_qps: float = DEFAULT_REPLICATE_HOT_QPS,
                 max_replicas: int = 0,
                 probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
                 probe_timeout_s: float = DEFAULT_PROBE_TIMEOUT_S,
                 probe_failures: int = DEFAULT_PROBE_FAILURES,
                 drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
                 call_timeout_s: float = DEFAULT_CALL_TIMEOUT_S,
                 vnodes: int = DEFAULT_VNODES,
                 respawn: bool = True,
                 metrics: ServiceMetrics | None = None) -> None:
        self.host = host
        self.port = port
        self.supervisor = supervisor
        self.max_inflight = max_inflight
        #: Hot-replication knob: one extra replica per this many live
        #: requests/s on a model; <= 0 disables replication entirely.
        self.replicate_hot_qps = replicate_hot_qps
        #: Cap on a model's replica count (0 = up to every worker).
        self.max_replicas = max_replicas
        self.probe_interval_s = probe_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.probe_failures = probe_failures
        self.drain_timeout_s = drain_timeout_s
        self.call_timeout_s = call_timeout_s
        #: ``respawn=False`` leaves dead workers dead (chaos tests that
        #: want to observe the degraded state deterministically).
        self.respawn = respawn
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.ring = HashRing(vnodes=vnodes)
        self.handles: dict[str, WorkerHandle] = {}
        self.healthy: set[str] = set()
        #: session id → worker id (built from session_open responses).
        self.sticky: dict[str, str] = {}
        self._probe_misses: dict[str, int] = {}
        self._respawning: set[str] = set()
        self._overloaded = 0
        self._ejections = 0
        self._draining = False
        self._reload_requested = False
        self._server: asyncio.AbstractServer | None = None
        self._probe_task: asyncio.Task | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> "ClusterRouter":
        loop = asyncio.get_running_loop()
        workers = await loop.run_in_executor(None,
                                             self.supervisor.start_all)
        for worker in workers:
            handle = WorkerHandle(worker.worker_id, self.supervisor.host,
                                  worker.port,
                                  max_inflight=self.max_inflight,
                                  call_timeout_s=self.call_timeout_s)
            await handle.connect()
            self.handles[worker.worker_id] = handle
            self.ring.add(worker.worker_id)
            self.healthy.add(worker.worker_id)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_STREAM_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        self._probe_task = asyncio.ensure_future(self._probe_loop())
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        await self._stopped.wait()

    async def stop(self) -> None:
        self._stopped.set()
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        for handle in self.handles.values():
            await handle.close()
        self.handles.clear()
        self.healthy.clear()
        await asyncio.get_running_loop().run_in_executor(
            None, self.supervisor.stop_all)

    # ---------------------------------------------------------- client side
    async def _handle_line(self, line: bytes, writer: asyncio.StreamWriter,
                           lock: asyncio.Lock) -> None:
        request_id = None
        op = "invalid"
        start = time.monotonic()
        ok = False
        try:
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ServiceError(f"request is not valid JSON: {exc}",
                                   error_type="ParseError") from None
            if not isinstance(request, dict):
                raise ServiceError("request must be a JSON object",
                                   error_type="ParseError")
            request_id = request.get("id")
            row = lookup(request.get("op", "query"))
            op = row.name
            envelope = await self._route(row, request)
            envelope["id"] = request_id
            ok = bool(envelope.get("ok"))
        except ReproError as exc:
            error = {"type": getattr(exc, "error_type", None)
                     or type(exc).__name__, "message": str(exc)}
            code = getattr(exc, "code", None)
            if code is not None:
                error["code"] = code
            envelope = {"id": request_id, "ok": False, "error": error}
        except Exception as exc:  # noqa: BLE001 - keep the router alive
            envelope = {"id": request_id, "ok": False,
                        "error": {"type": "InternalError",
                                  "message": f"{type(exc).__name__}: {exc}"}}
        self.metrics.observe_request(op, time.monotonic() - start, ok=ok)
        await self._write(writer, lock, envelope)

    # -------------------------------------------------------------- routing
    async def _route(self, row: Op, request: dict) -> dict:
        answered_here = row.route in (LOCAL, ROUTER)
        if self._draining and not answered_here:
            raise ServiceError("cluster is draining", code="draining")
        # Validated here, before anything is forwarded or any state moves.
        fields = row.parse(request)
        if answered_here:
            handler = getattr(self, f"_op_{row.name}")
            return {"ok": True, "result": await handler(**fields)}
        if row.route == STICKY:
            return await self._route_sticky(row.name, fields["session"],
                                            request)
        network = fields["network"]
        self.metrics.observe_network_request(network)
        if row.route == OPEN:
            return await self._route_session_open(network, request)
        return await self._route_placed(row.name, network, request)

    def _replicas_for(self, network: str) -> int:
        if self.replicate_hot_qps <= 0:
            return 1
        qps = self.metrics.network_qps().get(network, 0.0)
        replicas = 1 + int(qps / self.replicate_hot_qps)
        if self.max_replicas > 0:
            replicas = min(replicas, self.max_replicas)
        return replicas

    def _pick_worker(self, network: str) -> WorkerHandle:
        """Least-loaded healthy replica with a free in-flight slot."""
        candidates = self.ring.nodes_for(
            network, self._replicas_for(network), alive=self.healthy)
        handles = [self.handles[wid] for wid in candidates
                   if self.handles.get(wid) is not None
                   and self.handles[wid].connected]
        if not handles:
            raise ServiceError(
                f"no healthy worker for {network!r} (workers respawning?)",
                code="no_worker")
        best = min(handles, key=lambda h: h.inflight)
        if best.inflight >= self.max_inflight:
            self._overloaded += 1
            raise ServiceError(
                f"all replicas of {network!r} are at their in-flight "
                f"window ({self.max_inflight}); retry with backoff",
                code="overloaded")
        return best

    async def _route_placed(self, op: str, network: str,
                            request: dict) -> dict:
        # Placed ops are idempotent: a replica dying mid-call is retried
        # on the next-best replica instead of surfacing to the client.
        attempts = max(1, len(self.healthy))
        for attempt in range(attempts):
            handle = self._pick_worker(network)
            try:
                return await handle.call(op, request)
            except ServiceError as exc:
                if exc.code != "worker_lost" or attempt == attempts - 1:
                    raise
                self._note_dead_worker(handle.worker_id)
        raise AssertionError("unreachable")

    async def _route_session_open(self, network: str, request: dict) -> dict:
        handle = self._pick_worker(network)
        try:
            envelope = await handle.call("session_open", request)
        except ServiceError as exc:
            if exc.code == "worker_lost":
                self._note_dead_worker(handle.worker_id)
            raise
        if envelope.get("ok"):
            session = (envelope.get("result") or {}).get("session")
            if isinstance(session, str):
                self.sticky[session] = handle.worker_id
        return envelope

    async def _route_sticky(self, op: str, session: str,
                            request: dict) -> dict:
        worker_id = self.sticky.get(session)
        handle = self.handles.get(worker_id) if worker_id else None
        if handle is None or not handle.connected:
            self.sticky.pop(session, None)
            return {"ok": False, "error": {
                "type": "SessionError", "code": "session_closed",
                "message": f"session {session!r} is gone (its worker "
                           "left the cluster)"}}
        try:
            envelope = await handle.call(op, request)
        except ServiceError as exc:
            if exc.code == "worker_lost":
                self._note_dead_worker(handle.worker_id)
                self.sticky.pop(session, None)
                return {"ok": False, "error": {
                    "type": "SessionError", "code": "session_closed",
                    "message": f"session {session!r} died with its "
                               "worker"}}
            raise
        if op == "session_close" and envelope.get("ok"):
            self.sticky.pop(session, None)
        return envelope

    # ------------------------------------------------------- health probing
    def _note_dead_worker(self, worker_id: str) -> None:
        """Eject immediately (connection-level evidence beats probes)."""
        if worker_id in self.healthy:
            self.healthy.discard(worker_id)
            self._ejections += 1
            # Sessions pinned to the dead worker are gone; entries for
            # other workers stay untouched (the chaos pin asserts this).
            for session, wid in list(self.sticky.items()):
                if wid == worker_id:
                    del self.sticky[session]
        if self.respawn:
            self._schedule_respawn(worker_id)

    def _schedule_respawn(self, worker_id: str) -> None:
        if worker_id in self._respawning or self._draining:
            return
        self._respawning.add(worker_id)
        asyncio.ensure_future(self._respawn(worker_id))

    async def _respawn(self, worker_id: str) -> None:
        loop = asyncio.get_running_loop()
        try:
            old = self.handles.pop(worker_id, None)
            if old is not None:
                await old.close()
            worker = await loop.run_in_executor(
                None, lambda: self.supervisor.respawn(worker_id))
            handle = WorkerHandle(worker_id, self.supervisor.host,
                                  worker.port,
                                  max_inflight=self.max_inflight,
                                  call_timeout_s=self.call_timeout_s)
            await handle.connect()
            self.handles[worker_id] = handle
            self._probe_misses[worker_id] = 0
            # Ring membership never changed (eject only filters), so the
            # respawned worker inherits exactly its old placement.
            self.healthy.add(worker_id)
        except (ReproError, OSError):
            # Spawn failed (transient port/fork pressure): leave the
            # worker ejected; the next probe round tries again.
            pass
        finally:
            self._respawning.discard(worker_id)

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval_s)
            for worker_id, handle in list(self.handles.items()):
                if worker_id in self._respawning:
                    continue
                if not handle.connected:
                    self._note_dead_worker(worker_id)
                    continue
                try:
                    envelope = await handle.call(
                        "health", {}, timeout_s=self.probe_timeout_s)
                    if not envelope.get("ok"):
                        raise ServiceError("health returned an error")
                    self._probe_misses[worker_id] = 0
                    if (worker_id not in self.healthy
                            and not self._draining):
                        self.healthy.add(worker_id)
                except (ReproError, OSError):
                    misses = self._probe_misses.get(worker_id, 0) + 1
                    self._probe_misses[worker_id] = misses
                    if misses >= self.probe_failures:
                        self._probe_misses[worker_id] = 0
                        self._note_dead_worker(worker_id)

    # ----------------------------------------------------------- router ops
    async def _fanout(self, op: str, body: dict | None = None,
                      timeout_s: float | None = 30.0) -> dict[str, dict]:
        """Call ``op`` on every connected worker; map worker id → result
        (``None`` for workers that failed to answer)."""
        handles = [h for h in self.handles.values() if h.connected]

        async def one(handle: WorkerHandle):
            try:
                envelope = await handle.call(op, body or {},
                                             timeout_s=timeout_s)
                return handle.worker_id, (envelope.get("result")
                                          if envelope.get("ok") else None)
            except (ReproError, OSError):
                return handle.worker_id, None

        results = await asyncio.gather(*(one(h) for h in handles))
        return dict(results)

    def _router_info(self) -> dict:
        return {
            "workers": self.supervisor.worker_count,
            "healthy": len(self.healthy),
            "restarts": self.supervisor.restarts,
            "ejections": self._ejections,
            "overloaded": self._overloaded,
            "sticky_sessions": len(self.sticky),
            "inflight": {wid: h.inflight
                         for wid, h in self.handles.items()},
        }

    async def _op_health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "role": "router",
            "uptime_s": self.metrics.uptime_s(),
            "workers": {wid: {"healthy": wid in self.healthy,
                              "inflight": handle.inflight,
                              "port": handle.port}
                        for wid, handle in self.handles.items()},
        }

    async def _op_stats(self) -> dict:
        per_worker = await self._fanout("stats")
        aggregate = aggregate_snapshots(
            [snap for snap in per_worker.values() if snap])
        aggregate["cluster"] = self._router_info()
        aggregate["router"] = self.metrics.snapshot()
        aggregate["worker_stats"] = per_worker
        return aggregate

    async def _op_stats_reset(self) -> dict:
        await self._fanout("stats_reset")
        self.metrics.reset()
        return {"reset": True, "workers": len(self.handles)}

    async def _op_cache_stats(self) -> dict:
        return {"workers": await self._fanout("cache_stats")}

    async def _op_metrics(self) -> dict:
        per_worker = await self._fanout("stats")
        aggregate = aggregate_snapshots(
            [snap for snap in per_worker.values() if snap])
        text = render_cluster_prometheus(aggregate, per_worker,
                                         self._router_info())
        return {"content_type": "text/plain; version=0.0.4", "text": text}

    async def _op_slow_queries(self) -> dict:
        per_worker = await self._fanout("slow_queries")
        entries = []
        for worker_id, result in per_worker.items():
            for entry in (result or {}).get("slow_queries", []):
                entries.append({**entry, "worker": worker_id})
        entries.sort(key=lambda e: e.get("latency_ms", 0.0), reverse=True)
        return {"count": len(entries), "slow_queries": entries}

    async def _op_trace_dump(self) -> dict:
        per_worker = await self._fanout("trace_dump")
        events, count = [], 0
        for result in per_worker.values():
            events.extend((result or {}).get("traceEvents", []))
            count += (result or {}).get("traceCount", 0)
        return {"traceEvents": events, "traceCount": count,
                "displayTimeUnit": "ms"}

    async def _op_cluster_stats(self) -> dict:
        info = self._router_info()
        info["draining"] = self._draining
        info["ring"] = {
            "nodes": sorted(self.ring.nodes),
            "vnodes": self.ring._vnodes,
        }
        networks = sorted(self.metrics.network_qps())
        info["placement"] = {
            network: self.ring.nodes_for(network,
                                         self._replicas_for(network),
                                         alive=self.healthy)
            for network in networks
        }
        info["worker_restarts"] = {
            wid: self.supervisor.workers[wid].restarts
            for wid in self.supervisor.workers
        }
        return info

    async def _op_cluster_drain(self, reload: bool = False,
                                timeout_s: float | None = None) -> dict:
        """Graceful cluster shutdown: stop routing, finish in-flight.

        With ``reload: true`` the process exec-replaces itself after the
        drain (live reload: new code, same pid, clients reconnect); the
        response goes out *before* the listener dies either way.
        ``timeout_s`` defaults to the router's ``drain_timeout_s``.
        """
        if self._draining:
            raise ServiceError("drain already in progress", code="draining")
        self._draining = True
        self._reload_requested = reload
        deadline = time.monotonic() + (self.drain_timeout_s
                                       if timeout_s is None else timeout_s)
        # In-flight = forwarded calls still pending at any worker.
        while any(h.inflight for h in self.handles.values()):
            if time.monotonic() >= deadline:
                break
            await asyncio.sleep(0.02)
        drained = not any(h.inflight for h in self.handles.values())
        # Router-side teardown (worker SIGTERM drain included) runs
        # after this response is written.
        asyncio.get_running_loop().call_soon(self._stopped.set)
        if self._server is not None:
            self._server.close()
        return {
            "drained": drained,
            "reload": self._reload_requested,
            "workers": len(self.handles),
            "sticky_sessions_dropped": len(self.sticky),
        }


def reload_argv(argv: list[str] | None = None) -> list[str]:
    """The exec-replace argument vector for live reload.

    ``cluster_drain {"reload": true}`` re-execs the router process with
    the same interpreter and arguments it was started with — new code
    (after a deploy) picks up on the same pid without orphaning workers
    (they exit via the parent watchdog / SIGTERM first).
    """
    argv = list(sys.argv) if argv is None else list(argv)
    return [sys.executable] + argv


async def run_cluster(host: str, port: int, *, workers: int,
                      preload=(), worker_options: dict | None = None,
                      on_ready=None, exec_reload: bool = True,
                      **router_options) -> bool:
    """Run a router + N workers until drained or cancelled.

    The ``fastbni cluster`` body.  Returns ``True`` if shutdown was a
    requested reload (the CLI then exec-replaces the process — kept out
    of this coroutine so tests can drive the full drain path without
    their process being replaced).
    """
    import signal as signal_module

    supervisor = Supervisor(workers, host=host, preload=preload,
                            options=worker_options)
    router = ClusterRouter(host, port, supervisor=supervisor,
                           **router_options)
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    installed = []
    for signum in (signal_module.SIGTERM, signal_module.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_requested.set)
            installed.append(signum)
        except (ValueError, NotImplementedError, RuntimeError,
                AttributeError):  # pragma: no cover - platform dependent
            break
    try:
        await router.start()
        if on_ready is not None:
            on_ready(router)
        serve = asyncio.ensure_future(router.serve_forever())
        stopper = asyncio.ensure_future(stop_requested.wait())
        try:
            await asyncio.wait({serve, stopper},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (serve, stopper):
                task.cancel()
            await asyncio.gather(serve, stopper, return_exceptions=True)
    except asyncio.CancelledError:
        pass
    finally:
        for signum in installed:
            try:
                loop.remove_signal_handler(signum)
            except (ValueError, RuntimeError):  # pragma: no cover
                pass
        await router.stop()
    return router._reload_requested and exec_reload
