"""Session-scoped serving: persistent per-session incremental state.

The micro-batcher and the two-tier cache exploit *accidental* overlap —
they win only when unrelated requests happen to repeat or nearly repeat
evidence.  The conversational-diagnosis shape (DoctorBN-style: a client
opens a case, findings arrive one at a time, posteriors are read after
each) guarantees that overlap structurally: consecutive requests differ
by exactly one edit.  This module serves that shape directly.

A **session** is one :class:`~repro.jt.incremental.IncrementalEngine`
seeded via ``clone()`` (O(cliques), no propagation) from its model
entry's cache-shared base state, so the session starts with most
messages already valid and every subsequent ``session_update`` is a
delta recalibration — never a cold calibration.  The
:class:`SessionManager` owns the session table:

* **byte accounting** — each session's resident bytes are charged to its
  :class:`~repro.service.registry.ModelEntry` (``session_bytes``), so
  sessions count against the registry's ``max_bytes`` exactly like cache
  tiers; the manager additionally bounds its own total (``max_bytes``)
  and count (``max_sessions``) with LRU eviction, plus an idle TTL;
* **explicit eviction errors** — operations on a closed or evicted id
  raise :class:`~repro.errors.SessionError` with ``code
  "session_closed"`` (``"session_unknown"`` for ids never issued), never
  a hang or a silent restart;
* **pin/lease integration** — every open session holds one registry pin
  on its model entry for its whole lifetime, so evicting (or shutting
  down) a model with live sessions *retires* the entry and the shared
  engine/plan close only after the last session ends;
* **ordering** — updates on one session are serialized (a per-session
  lock), while distinct sessions run concurrently on the manager's
  executor.

All methods are synchronous and thread-safe; the server calls them via
``run_in_executor`` on :attr:`SessionManager.executor`.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import EvidenceError, QueryError, ReproError, SessionError
from repro.jt.incremental import IncrementalEngine
from repro.service.metrics import ServiceMetrics
from repro.service.registry import ModelEntry, ModelRegistry

#: Live sessions per server; past this the least-recently-used is evicted.
DEFAULT_MAX_SESSIONS = 256
#: Idle seconds before a session is evicted by the TTL sweep.
DEFAULT_IDLE_TTL_S = 600.0
#: Total session byte budget (on top of per-entry registry accounting).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024
#: Executor width: how many *distinct* sessions can propagate at once.
DEFAULT_WORKERS = 4

#: Closed/evicted ids remembered for explicit ``session_closed`` errors.
_TOMBSTONE_LIMIT = 4096

#: Fixed per-session overhead charged on top of the engine's arrays.
_SESSION_OVERHEAD_BYTES = 2048


@dataclass
class Session:
    """One live session: its engine, its model pin, and its bookkeeping."""

    id: str
    network: str
    entry: ModelEntry
    engine: IncrementalEngine
    created: float
    last_used: float
    #: Serializes updates/queries on this session; distinct sessions run
    #: concurrently on the manager's executor.
    lock: threading.Lock = field(default_factory=threading.Lock)
    updates: int = 0
    queries: int = 0
    #: Last byte estimate charged to the entry (engine arrays + overhead).
    bytes: int = 0
    #: Cleared on close/eviction so an in-flight operation that raced the
    #: eviction does not re-charge bytes for a session already settled.
    live: bool = True

    def resident_bytes(self) -> int:
        return self.engine.resident_bytes() + _SESSION_OVERHEAD_BYTES

    def describe(self) -> dict:
        return {
            "session": self.id,
            "network": self.network,
            "evidence_vars": len(self.engine.evidence),
            "updates": self.updates,
            "queries": self.queries,
            "bytes": self.bytes,
        }


class SessionManager:
    """The session table behind ``session_open``/``update``/``query``/``close``.

    Parameters
    ----------
    registry:
        The registry sessions pin their model entries in (and whose byte
        budget session bytes are folded into).
    max_sessions / idle_ttl_s / max_bytes:
        Table bounds: LRU count cap, idle eviction TTL, and the manager's
        own total byte budget.  Evicted ids answer with
        :class:`~repro.errors.SessionError` (``code "session_closed"``).
    workers:
        Width of :attr:`executor` — concurrent *distinct* sessions; one
        session's operations always serialize.
    clock:
        Injectable time source (tests drive TTL eviction explicitly).
    cold:
        Kill-switch for the warm delta path (the ablation harness's
        ``sessions_warm`` component): every open builds a fresh engine
        instead of cloning the cache-shared base state, and every
        update/query rebuilds the session's state from scratch so each
        read pays a full propagation.  Answers are identical; only the
        incremental reuse is disabled.
    """

    def __init__(self, registry: ModelRegistry, *,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 idle_ttl_s: float = DEFAULT_IDLE_TTL_S,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 metrics: ServiceMetrics | None = None,
                 workers: int = DEFAULT_WORKERS,
                 clock=time.monotonic,
                 cold: bool = False) -> None:
        if max_sessions < 1:
            raise QueryError(f"max_sessions must be >= 1, got {max_sessions}")
        self.registry = registry
        self.max_sessions = max_sessions
        self.idle_ttl_s = idle_ttl_s
        self.max_bytes = max_bytes
        self.metrics = metrics
        self.cold = cold
        self._clock = clock
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        #: id -> eviction reason, for explicit session_closed errors.
        self._tombstones: "OrderedDict[str, str]" = OrderedDict()
        self._closed = False
        #: Session operations run here (the server's ``run_in_executor``
        #: target): per-session locks serialize one session while
        #: distinct sessions propagate concurrently.
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="fastbni-session")

    # ----------------------------------------------------------------- table
    def _tombstone_locked(self, session_id: str, reason: str) -> None:
        self._tombstones[session_id] = reason
        while len(self._tombstones) > _TOMBSTONE_LIMIT:
            self._tombstones.popitem(last=False)

    def _checkout(self, session_id: str) -> Session:
        """Look up a live session, touching its LRU position and clock."""
        if not isinstance(session_id, str) or not session_id:
            raise QueryError("session operations require a 'session' id string")
        with self._lock:
            self._sweep_locked()
            session = self._sessions.get(session_id)
            if session is None:
                reason = self._tombstones.get(session_id)
                if reason is not None:
                    raise SessionError(
                        f"session {session_id!r} is closed ({reason})",
                        code="session_closed")
                raise SessionError(
                    f"unknown session id {session_id!r}",
                    code="session_unknown")
            self._sessions.move_to_end(session_id)
            session.last_used = self._clock()
            return session

    def _settle_locked(self, session: Session, reason: str) -> None:
        """Drop a session's byte charge and mark it dead (lock held)."""
        session.live = False
        session.entry.session_bytes -= session.bytes
        session.bytes = 0
        self._tombstone_locked(session.id, reason)

    def _evict_locked(self, session_id: str, reason: str) -> None:
        session = self._sessions.pop(session_id)
        self._settle_locked(session, reason)
        self.registry.unpin(session.entry)
        if self.metrics is not None:
            self.metrics.observe_session_event("evicted")

    def _sweep_locked(self) -> None:
        """Evict idle-TTL-expired sessions (cheap: table is small)."""
        if self.idle_ttl_s <= 0:
            return
        cutoff = self._clock() - self.idle_ttl_s
        for sid in [sid for sid, s in self._sessions.items()
                    if s.last_used < cutoff]:
            self._evict_locked(sid, "idle TTL exceeded")

    def _enforce_locked(self, keep: str) -> None:
        """LRU-evict over the count/byte caps, sparing ``keep`` (the
        session just touched — mirroring the registry's never-evict-MRU
        rule, one over-budget session stays servable)."""
        while len(self._sessions) > self.max_sessions:
            sid = next(iter(self._sessions))
            if sid == keep:
                break
            self._evict_locked(sid, "session table full (LRU)")
        while (len(self._sessions) > 1
               and sum(s.bytes for s in self._sessions.values())
               > self.max_bytes):
            sid = next(iter(self._sessions))
            if sid == keep:
                break
            self._evict_locked(sid, "session byte budget exceeded")

    def _account(self, session: Session) -> None:
        """Re-charge a session's bytes after engine work, then re-check
        both the manager's and the registry's budgets."""
        with self._lock:
            if session.live:
                fresh = session.resident_bytes()
                session.entry.session_bytes += fresh - session.bytes
                session.bytes = fresh
                self._enforce_locked(keep=session.id)
        self.registry.enforce_budget()

    @staticmethod
    def _cold_engine(entry: ModelEntry, evidence: dict | None):
        """A from-scratch session state: no cache base, no valid messages."""
        return IncrementalEngine(entry.engine.tree,
                                 evidence=dict(evidence or {}))

    @staticmethod
    def _recomputed(engine) -> int:
        """Messages revalidated so far (the delta path's work counter)."""
        counters = getattr(engine, "counters", None)
        if not counters:
            return 0
        return (counters.get("up_recomputed", 0)
                + counters.get("down_recomputed", 0))

    # ------------------------------------------------------------ operations
    def open(self, network: str, evidence: dict | None = None,
             engine: str | None = None, trace=None) -> dict:
        """Open a session on ``network`` (optionally with initial evidence).

        The per-session state clones from the model's cache-shared base
        state (best evidence overlap wins), so opening costs O(cliques)
        and no propagation.  Models routed to a sampling engine are
        rejected — sessions are delta recalibration, which needs the
        junction tree (pass ``engine="exact"`` to force a compile).
        ``trace`` (a sampled request's :class:`~repro.obs.TraceContext`)
        gets a ``session_open`` span covering the clone.
        """
        span = (trace.start_span("session_open", network=network)
                if trace is not None else None)
        with self._lock:
            if self._closed:
                raise SessionError("session manager is shut down",
                                   code="session_closed")
        entry = self.registry.get_pinned(network, engine=engine)
        try:
            if not entry.capabilities.exact:
                raise QueryError(
                    f"sessions need an exact junction-tree engine but "
                    f"{network!r} is served by {entry.engine_kind!r} "
                    "(send engine='exact' to force an exact compile)")
            if entry.cache is not None and not self.cold:
                state = entry.cache.session_state(evidence)
            else:
                state = self._cold_engine(entry, evidence)
        except ReproError:
            self.registry.unpin(entry)
            raise
        now = self._clock()
        session = Session(id=secrets.token_hex(8), network=network,
                          entry=entry, engine=state, created=now,
                          last_used=now)
        session.bytes = session.resident_bytes()
        with self._lock:
            if self._closed:
                self.registry.unpin(entry)
                raise SessionError("session manager is shut down",
                                   code="session_closed")
            self._sweep_locked()
            self._sessions[session.id] = session
            entry.session_bytes += session.bytes
            self._enforce_locked(keep=session.id)
        self.registry.enforce_budget()
        if self.metrics is not None:
            self.metrics.observe_session_event("opened")
        if span is not None:
            trace.end_span(span, evidence_vars=len(state.evidence),
                           session_bytes=session.bytes)
        return session.describe()

    def update(self, session_id: str, evidence: dict | None = None,
               retract=(), replace: bool = False,
               targets: tuple[str, ...] | None = None, trace=None) -> dict:
        """Apply one evidence edit to a session (the streaming hot path).

        By default ``evidence`` *merges* into the session's current
        findings and ``retract`` names variables to withdraw — the
        one-finding-at-a-time conversational shape.  ``replace=True``
        swaps the full evidence set instead.  When ``targets`` is given
        the fresh posteriors (and ``log P(e)``) come back in the same
        round trip.  Unknown variables/states raise
        :class:`~repro.errors.EvidenceError` before any state changes.
        """
        session = self._checkout(session_id)
        with session.lock:
            engine = session.engine
            span = (trace.start_span("session_update")
                    if trace is not None else None)
            recomputed_before = self._recomputed(engine)
            if replace:
                new_evidence = dict(evidence or {})
            else:
                new_evidence = dict(engine.evidence)
                for name in tuple(retract or ()):
                    if name not in engine.tree.net:
                        raise EvidenceError(
                            f"cannot retract unknown variable {name!r}")
                    new_evidence.pop(name, None)
                new_evidence.update(evidence or {})
            if self.cold:
                # Kill-switch: discard the calibrated state so this edit
                # (and any posterior read below) pays a full propagation.
                engine = session.engine = self._cold_engine(
                    session.entry, None)
            delta = engine.update(new_evidence)
            session.updates += 1
            payload = {
                "session": session.id,
                "delta": {
                    "added": list(delta.added),
                    "retracted": list(delta.retracted),
                    "changed": list(delta.changed),
                    "size": delta.size,
                    "dirty_cliques": len(delta.dirty_cliques),
                },
                "evidence_vars": len(engine.evidence),
            }
            if targets is not None:
                payload["posteriors"] = engine.posteriors(tuple(targets))
                payload["log_evidence"] = engine.log_evidence()
                session.queries += 1
            if span is not None:
                trace.end_span(
                    span, delta_size=delta.size,
                    dirty_cliques=len(delta.dirty_cliques),
                    revalidated_messages=(self._recomputed(engine)
                                          - recomputed_before),
                    evidence_vars=len(engine.evidence))
        if self.metrics is not None:
            self.metrics.observe_session_update(delta.size)
            if targets is not None:
                self.metrics.observe_session_query()
        self._account(session)
        return payload

    def query(self, session_id: str,
              targets: tuple[str, ...] = (), trace=None) -> dict:
        """Read posteriors + ``log P(e)`` from a session's current state.

        Revalidates only the messages the targets need (lazy delta
        propagation); impossible evidence raises
        :class:`~repro.errors.EvidenceError` and the session stays usable
        — the next feasible update recomputes what it invalidated.
        """
        session = self._checkout(session_id)
        with session.lock:
            engine = session.engine
            if self.cold:
                engine = session.engine = self._cold_engine(
                    session.entry, dict(engine.evidence))
            span = (trace.start_span("session_query")
                    if trace is not None else None)
            recomputed_before = self._recomputed(engine)
            payload = {
                "session": session.id,
                "posteriors": engine.posteriors(tuple(targets)),
                "log_evidence": engine.log_evidence(),
                "evidence_vars": len(engine.evidence),
                "served_by": "session",
            }
            session.queries += 1
            if span is not None:
                trace.end_span(
                    span,
                    revalidated_messages=(self._recomputed(engine)
                                          - recomputed_before),
                    evidence_vars=len(engine.evidence))
        if self.metrics is not None:
            self.metrics.observe_session_query()
        self._account(session)
        return payload

    def close(self, session_id: str) -> dict:
        """Close a session, releasing its bytes and its model pin.

        Closing an already-closed/evicted id raises the same explicit
        :class:`~repro.errors.SessionError` other operations see.
        """
        session = self._checkout(session_id)
        with self._lock:
            # Re-check under the lock: _checkout released it, and a
            # concurrent close/eviction may have won the race.
            if self._sessions.get(session_id) is not session:
                raise SessionError(
                    f"session {session_id!r} is closed "
                    f"({self._tombstones.get(session_id, 'closed')})",
                    code="session_closed")
            del self._sessions[session_id]
            self._settle_locked(session, "closed by client")
        self.registry.unpin(session.entry)
        if self.metrics is not None:
            self.metrics.observe_session_event("closed")
        summary = session.describe()
        summary["closed"] = True
        return summary

    # ------------------------------------------------------------- lifecycle
    def sweep(self) -> int:
        """Evict idle-TTL-expired sessions; returns how many went."""
        with self._lock:
            before = len(self._sessions)
            self._sweep_locked()
            return before - len(self._sessions)

    def total_bytes(self) -> int:
        """Bytes currently charged for live sessions (all models)."""
        with self._lock:
            return sum(s.bytes for s in self._sessions.values())

    def stats(self) -> dict:
        """JSON-ready table snapshot for the ``stats`` endpoint."""
        with self._lock:
            return {
                "open": len(self._sessions),
                "max_sessions": self.max_sessions,
                "idle_ttl_s": self.idle_ttl_s,
                "bytes": sum(s.bytes for s in self._sessions.values()),
                "max_bytes": self.max_bytes,
                "by_network": {
                    sid: s.describe() for sid, s in self._sessions.items()
                },
            }

    def close_all(self) -> None:
        """Shut down: evict every session and stop the executor."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for sid in list(self._sessions):
                session = self._sessions.pop(sid)
                self._settle_locked(session, "server shutdown")
                self.registry.unpin(session.entry)
        self.executor.shutdown(wait=True)

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close_all()
