"""Blocking JSON-lines client for the inference server.

Stdlib-only (``socket``), one request per call, suitable for CLI use,
smoke tests and closed-loop benchmarking.  Concurrency-hungry callers
(the benchmark's open-connection workers, the test suite) speak the
protocol directly over ``asyncio.open_connection`` instead — the wire
format is the same newline-delimited JSON documented in
:mod:`repro.service.server`.
"""

from __future__ import annotations

import json
import random
import socket
import time

from repro.errors import ServiceError, SessionError
from repro.service.ops import OPS
from repro.service.server import DEFAULT_PORT

#: ``error.code`` values that mean "rejected before execution — retry is
#: always safe", regardless of the op: a draining or overloaded server
#: refuses work up front, so even a ``session_update`` can be resent.
RETRYABLE_CODES = frozenset({"overloaded", "draining", "no_worker"})

#: Exponential-backoff ceiling between retry attempts (seconds).
_BACKOFF_CAP_S = 2.0


class ServiceClient:
    """One TCP connection to a running inference server.

    Parameters
    ----------
    host / port:
        Server address (defaults match ``fastbni serve``'s defaults).
    timeout:
        Per-operation socket timeout in seconds (default 30); a stalled
        server surfaces as ``socket.timeout`` rather than a hang.
    connect_retry_s:
        Keep retrying the initial connect for this many seconds — handy
        when the server is being started in parallel (CI smoke jobs,
        benchmarks).  0 (default) fails immediately.
    retries:
        Transparent retry budget per call (default 0 = old behaviour).
        Two failure classes qualify: a dropped/refused connection
        (``ECONNRESET`` during a worker restart) for **idempotent ops
        only** (rows of :data:`repro.service.ops.OPS` marked
        ``idempotent`` — the client cannot know whether a lost mutation
        executed, so session mutations and counter resets are never
        resent), and ``overloaded``/``draining``/
        ``no_worker`` rejections for **all** ops (the server refused the
        work before touching it).  Each attempt reconnects and backs off
        exponentially with jitter.
    retry_backoff_s:
        Base delay for the first retry (default 0.05s); attempt *k*
        sleeps ``min(2s, base * 2**k)`` plus up to 25% jitter.

    Failure modes: :class:`~repro.errors.ServiceError` when the server is
    unreachable, closes the connection, or answers ``ok: false`` — in the
    last case ``error_type`` carries the server-side exception class name
    (``EvidenceError``, ``PlannerError``, ...) so callers can branch
    without string matching.  The client is synchronous and single
    in-flight; concurrency-hungry callers speak the JSON-lines protocol
    over ``asyncio.open_connection`` instead.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
                 timeout: float = 30.0, connect_retry_s: float = 0.0,
                 retries: int = 0, retry_backoff_s: float = 0.05) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = int(retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self._next_id = 0
        self._sock: socket.socket | None = None
        self._file = None
        self._connect(connect_retry_s)

    def _connect(self, retry_s: float = 0.0) -> None:
        """(Re)establish the TCP connection, retrying for ``retry_s``."""
        self._teardown()
        deadline = time.monotonic() + retry_s
        while True:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"cannot connect to inference server at "
                        f"{self.host}:{self.port}",
                        code="connection_lost") from None
                time.sleep(0.1)
        self._file = self._sock.makefile("rwb")

    def _teardown(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _backoff(self, attempt: int) -> None:
        delay = min(_BACKOFF_CAP_S, self.retry_backoff_s * (2 ** attempt))
        time.sleep(delay * (1.0 + 0.25 * random.random()))

    # ----------------------------------------------------------------- wire
    def _request_once(self, op: str, fields: dict) -> dict:
        self._next_id += 1
        payload = {"id": self._next_id, "op": op}
        payload.update({k: v for k, v in fields.items() if v is not None})
        if self._file is None:
            self._connect()
        try:
            self._file.write(json.dumps(payload).encode() + b"\n")
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            self._teardown()
            raise ServiceError(
                f"connection to {self.host}:{self.port} lost: {exc}",
                code="connection_lost") from None
        if not line:
            self._teardown()
            raise ServiceError("server closed the connection",
                               code="connection_lost")
        response = json.loads(line)
        if response.get("id") != self._next_id:
            raise ServiceError(
                f"response id {response.get('id')!r} does not match request "
                f"id {self._next_id} (pipelined requests need the async API)"
            )
        return response

    def request(self, op: str, **fields) -> dict:
        """Send one request; return the full response envelope.

        With ``retries > 0``, idempotent ops are transparently resent
        over a fresh connection when the server drops mid-call (worker
        restart), with capped exponential backoff + jitter between
        attempts.
        """
        attempt = 0
        while True:
            try:
                # _request_once reconnects lazily when the previous
                # attempt tore the socket down; a still-down server
                # surfaces as another connection_lost and consumes the
                # next attempt.
                return self._request_once(op, fields)
            except ServiceError as exc:
                retryable = (exc.code == "connection_lost"
                             and op in OPS and OPS[op].idempotent)
                if not retryable or attempt >= self.retries:
                    raise
            self._backoff(attempt)
            attempt += 1

    def call(self, op: str, **fields) -> dict:
        """Send one request; return ``result`` or raise :class:`ServiceError`.

        Rejections whose ``error.code`` is in :data:`RETRYABLE_CODES`
        (``overloaded`` backpressure, a ``draining`` worker, a placement
        hole during respawn) are retried for **all** ops within the same
        ``retries`` budget — the server refused them before execution,
        so resending cannot double-apply anything.
        """
        attempt = 0
        while True:
            response = self.request(op, **fields)
            if response.get("ok"):
                return response["result"]
            error = response.get("error") or {}
            message = error.get("message", "unknown server error")
            code = error.get("code")
            if code in RETRYABLE_CODES and attempt < self.retries:
                self._backoff(attempt)
                attempt += 1
                continue
            if error.get("type") == "SessionError":
                # Re-raise with the machine-readable code so callers can
                # branch on eviction ("session_closed") vs typo
                # ("session_unknown") without string matching.
                raise SessionError(message,
                                   code=error.get("code", "session_closed"))
            raise ServiceError(message, error_type=error.get("type"),
                               code=code)

    # ------------------------------------------------------------ operations
    def query(self, network: str, evidence: dict | None = None,
              targets=None, soft_evidence: dict | None = None,
              engine: str | None = None) -> dict:
        """One posterior query; ``engine`` = ``exact``/``approx``/``auto``.

        Responses served by the sampling engine additionally carry
        ``ess``, ``stderr``, ``num_samples`` (and ``r_hat`` for Gibbs).
        """
        return self.call("query", network=network, evidence=evidence,
                         targets=list(targets) if targets else None,
                         soft_evidence=soft_evidence, engine=engine)

    def query_batch(self, network: str, cases: list, targets=None,
                    engine: str | None = None) -> dict:
        return self.call("query_batch", network=network, cases=cases,
                         targets=list(targets) if targets else None,
                         engine=engine)

    def mpe(self, network: str, evidence: dict | None = None,
            engine: str | None = None) -> dict:
        return self.call("mpe", network=network, evidence=evidence,
                         engine=engine)

    def info(self, network: str, engine: str | None = None) -> dict:
        return self.call("info", network=network, engine=engine)

    def health(self) -> dict:
        return self.call("health")

    def stats(self) -> dict:
        return self.call("stats")

    def stats_reset(self) -> dict:
        """Zero the server's metrics counters (clean benchmark windows)."""
        return self.call("stats_reset")

    def cache_stats(self) -> dict:
        """Per-model result-memo counters plus serving totals.

        The response maps resident model keys to their
        :meth:`repro.service.cache.InferenceCache.stats` dict (memo
        entries, hit rates, bytes); ``served`` carries the server-wide
        memo serving counter.
        """
        return self.call("cache_stats")

    # --------------------------------------------------------- observability
    def metrics(self) -> str:
        """The server's metrics as Prometheus exposition text."""
        return self.call("metrics")["text"]

    def slow_queries(self) -> dict:
        """The bounded slow-query log (slowest first) plus its threshold."""
        return self.call("slow_queries")

    def trace_dump(self) -> dict:
        """Buffered sampled traces as a Chrome trace-event document.

        ``json.dump`` the return value to a file and open it in
        ``chrome://tracing`` or Perfetto (``fastbni trace out.json``
        does exactly that).
        """
        return self.call("trace_dump")

    # -------------------------------------------------------------- sessions
    def session_open(self, network: str, evidence: dict | None = None,
                     engine: str | None = None) -> dict:
        """Open a streaming session; the result carries its ``session`` id."""
        return self.call("session_open", network=network, evidence=evidence,
                         engine=engine)

    def session_update(self, session: str, evidence: dict | None = None,
                       retract=None, replace: bool = False,
                       targets=None) -> dict:
        """Apply one evidence edit; pass ``targets`` (a list, possibly
        empty = all variables) to read the fresh posteriors in the same
        round trip."""
        return self.call("session_update", session=session, evidence=evidence,
                         retract=list(retract) if retract else None,
                         replace=True if replace else None,
                         targets=list(targets) if targets is not None else None)

    def session_query(self, session: str, targets=None) -> dict:
        return self.call("session_query", session=session,
                         targets=list(targets) if targets else None)

    def session_close(self, session: str) -> dict:
        return self.call("session_close", session=session)

    def session(self, network: str, evidence: dict | None = None,
                engine: str | None = None) -> "Session":
        """Open a session wrapped in a context-manager facade::

            with client.session("asia", {"smoke": "yes"}) as sess:
                sess.update({"xray": "yes"})
                print(sess.query(["lung"])["posteriors"]["lung"])
        """
        return Session(self, self.session_open(network, evidence=evidence,
                                               engine=engine))

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Session:
    """Client-side facade over one server session (see
    :meth:`ServiceClient.session`).

    Thin by design: every method is one wire round trip on the owning
    client, and the server is the source of truth for the session's
    evidence and lifetime.  Exiting the context closes the session;
    a session the server already evicted (idle TTL, byte pressure)
    raises :class:`~repro.errors.SessionError` with code
    ``"session_closed"`` — on exit, that is swallowed (the goal, a dead
    session, is already achieved).
    """

    def __init__(self, client: ServiceClient, opened: dict) -> None:
        self._client = client
        self.id: str = opened["session"]
        self.network: str = opened["network"]

    def update(self, evidence: dict | None = None, retract=None,
               replace: bool = False, targets=None) -> dict:
        return self._client.session_update(self.id, evidence=evidence,
                                           retract=retract, replace=replace,
                                           targets=targets)

    def query(self, targets=None) -> dict:
        return self._client.session_query(self.id, targets=targets)

    def close(self) -> dict:
        return self._client.session_close(self.id)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> None:
        try:
            self.close()
        except SessionError:
            pass  # already closed or evicted server-side
