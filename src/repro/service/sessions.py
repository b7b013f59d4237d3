"""Session-scoped serving: persistent per-session evidence.

The conversational-diagnosis shape (a client opens a case, findings
arrive one at a time, posteriors are read after each) makes consecutive
requests differ by exactly one edit; this module serves that shape.

A session is its validated evidence and its model pin, and every read
is one case, ``entry.engine.infer(evidence, targets)``.  On native
kernels in ``seq`` mode (the serving default) that is one whole-case
call that runs only the messages the evidence and the targets need,
from the calibrated prior; otherwise it is a full calibration of the
case.
The :class:`SessionManager` owns the session table:

* **byte accounting** — each session's fixed charge is added to its
  entry's ``session_bytes`` (counted against the registry's budget like
  the result memo), and the manager bounds its count with LRU eviction,
  plus an idle TTL;
* **explicit eviction errors** — a closed or evicted id raises
  :class:`~repro.errors.SessionError` with ``code "session_closed"``
  (``"session_unknown"`` if never issued), never a hang;
* **pins** — an open session pins its model entry, so evicting a model
  with live sessions *retires* the entry until the last one ends;
* **ordering** — one session's updates are serialized (a per-session
  lock), so callers on several threads may share the manager;
* **all or nothing** — an update resolves its targets, retractions and
  evidence before it changes anything.  Impossible evidence is not a
  rejection: the edit applies, the read raises
  :class:`~repro.errors.EvidenceError`, the session stays usable.

All methods are synchronous and thread-safe.  The server runs every op
of a session where :func:`~repro.service.batcher.runs_inline` puts one
case of its model: the loop on native, else the flush worker.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import EvidenceError, QueryError, ReproError, SessionError
from repro.jt.evidence import check_evidence, evidence_delta
from repro.service.metrics import ServiceMetrics
from repro.service.registry import ModelEntry, ModelRegistry

#: Live sessions per server; past this the least-recently-used is evicted.
DEFAULT_MAX_SESSIONS = 256
#: Idle seconds before a session is evicted by the TTL sweep.
DEFAULT_IDLE_TTL_S = 600.0

#: Closed/evicted ids remembered for explicit ``session_closed`` errors.
_TOMBSTONE_LIMIT = 4096

#: Bytes charged per session (its evidence dict and bookkeeping).
_SESSION_BYTES = 2048


@dataclass
class Session:
    """One live session: its evidence, model pin and bookkeeping."""

    id: str
    network: str
    entry: ModelEntry
    #: The findings in force, index-normalised.
    evidence: dict
    created: float
    last_used: float
    #: Serializes updates/queries on this session across threads.
    lock: threading.Lock = field(default_factory=threading.Lock)
    updates: int = 0
    queries: int = 0
    #: Bytes charged to the entry; 0 once the session is settled.
    bytes: int = _SESSION_BYTES

    def describe(self) -> dict:
        return {
            "session": self.id,
            "network": self.network,
            "evidence_vars": len(self.evidence),
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
    max_sessions / idle_ttl_s:
        Table bounds: LRU count cap and idle eviction TTL.  Evicted ids
        answer with :class:`~repro.errors.SessionError` (``code
        "session_closed"``).
    clock:
        Injectable time source (tests drive TTL eviction explicitly).
    """

    def __init__(self, registry: ModelRegistry, *,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 idle_ttl_s: float = DEFAULT_IDLE_TTL_S,
                 metrics: ServiceMetrics | None = None,
                 clock=time.monotonic) -> None:
        if max_sessions < 1:
            raise QueryError(f"max_sessions must be >= 1, got {max_sessions}")
        self.registry = registry
        self.max_sessions = max_sessions
        self.idle_ttl_s = idle_ttl_s
        self.metrics = metrics
        self._clock = clock
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        #: id -> eviction reason, for explicit session_closed errors.
        self._tombstones: "OrderedDict[str, str]" = OrderedDict()
        self._closed = False

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

    def entry(self, session_id: str) -> ModelEntry | None:
        """The model entry a live session reads (``None`` if not live);
        touches neither its LRU position nor its clock."""
        with self._lock:
            session = self._sessions.get(session_id)
            return session.entry if session is not None else None

    def _settle_locked(self, session: Session, reason: str) -> None:
        """Drop a session's byte charge and tombstone it (lock held)."""
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
        """Evict idle-TTL-expired sessions: a prefix of the table, which
        is in ``last_used`` order (stamped under the lock on open and on
        every checkout, which moves the session to the end)."""
        if self.idle_ttl_s <= 0:
            return
        cutoff = self._clock() - self.idle_ttl_s
        while self._sessions:
            sid, session = next(iter(self._sessions.items()))
            if session.last_used >= cutoff:
                return
            self._evict_locked(sid, "idle TTL exceeded")

    def _enforce_locked(self, keep: str) -> None:
        """LRU-evict over the count cap, sparing ``keep`` (the session
        just touched)."""
        while len(self._sessions) > self.max_sessions:
            sid = next(iter(self._sessions))
            if sid == keep:
                break
            self._evict_locked(sid, "session table full (LRU)")

    @staticmethod
    def _edited(session: Session, evidence: dict | None, retract,
                replace: bool) -> dict:
        """The session's evidence after one edit; only the edit's findings
        are validated (what the session holds already was)."""
        new = {} if replace else dict(session.evidence)
        for name in () if replace else tuple(retract or ()):
            if name not in session.entry.net:
                raise EvidenceError(f"cannot retract unknown variable {name!r}")
            new.pop(name, None)
        new.update(check_evidence(session.entry.engine.tree, evidence or {}))
        return new

    @staticmethod
    def _read(session: Session, targets: tuple[str, ...], attrs: dict
              ) -> dict:
        """Posteriors and ``log P(e)`` of the session's evidence as one
        case; the messages it ran go into ``attrs`` (a trace span's
        attributes)."""
        result = session.entry.engine.infer(session.evidence, targets)
        attrs["messages_run"] = int(result.meta["messages_run"])
        return {"posteriors": result.posteriors,
                "log_evidence": result.log_evidence}

    # ------------------------------------------------------------ operations
    def open(self, network: str, evidence: dict | None = None,
             engine: str | None = None, trace=None,
             pinned: ModelEntry | None = None) -> dict:
        """Open a session on ``network`` (optionally with initial evidence).

        Validates the evidence and pins the model; nothing is computed.
        Models routed to a sampling engine are rejected — sessions need
        the junction tree (pass ``engine="exact"`` to force a compile).
        ``pinned``, an entry for ``network`` the caller pinned, is adopted
        (a failed open releases it).  ``trace`` (a sampled request's
        :class:`~repro.obs.TraceContext`) gets a ``session_open`` span.
        """
        span = (trace.start_span("session_open", network=network)
                if trace is not None else None)
        entry = (pinned if pinned is not None
                 else self.registry.get_pinned(network, engine=engine))
        try:
            if not entry.capabilities.exact:
                raise QueryError(
                    f"sessions need an exact junction-tree engine but "
                    f"{network!r} is served by {entry.engine_kind!r} "
                    "(send engine='exact' to force an exact compile)")
            found = check_evidence(entry.engine.tree, dict(evidence or {}))
        except ReproError:
            self.registry.unpin(entry)
            raise
        with self._lock:
            if self._closed:
                self.registry.unpin(entry)
                raise SessionError("session manager is shut down",
                                   code="session_closed")
            # Stamped under the lock, so the table stays in last_used order.
            now = self._clock()
            session = Session(id=secrets.token_hex(8), network=network,
                              entry=entry, evidence=found,
                              created=now, last_used=now)
            self._sweep_locked()
            self._sessions[session.id] = session
            entry.session_bytes += session.bytes
            self._enforce_locked(keep=session.id)
        self.registry.enforce_budget()
        if self.metrics is not None:
            self.metrics.observe_session_event("opened")
        if span is not None:
            trace.end_span(span, evidence_vars=len(found),
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
        round trip.  Unknown targets, retractions, variables and states
        raise before anything changes.  ``delta.dirty_cliques`` counts the
        cliques holding an edited variable.
        """
        session = self._checkout(session_id)
        with session.lock:
            span = (trace.start_span("session_update")
                    if trace is not None else None)
            engine = session.entry.engine
            if targets is not None:
                targets = tuple(targets)
                engine.plan.variable_ids(targets)
            new_evidence = self._edited(session, evidence, retract, replace)
            added, retracted, changed = evidence_delta(session.evidence,
                                                       new_evidence)
            size = len(added) + len(retracted) + len(changed)
            dirty = len({cid for name in (*added, *retracted, *changed)
                         for cid in engine.tree.cliques_with(name)})
            session.evidence = new_evidence
            session.updates += 1
            payload = {
                "session": session.id,
                "delta": {
                    "added": list(added),
                    "retracted": list(retracted),
                    "changed": list(changed),
                    "size": size,
                    "dirty_cliques": dirty,
                },
                "evidence_vars": len(new_evidence),
            }
            attrs = {"delta_size": size, "dirty_cliques": dirty,
                     "evidence_vars": len(new_evidence)}
            if targets is not None:
                payload.update(self._read(session, targets, attrs))
                session.queries += 1
            if span is not None:
                trace.end_span(span, **attrs)
        if self.metrics is not None:
            self.metrics.observe_session_update(size)
            if targets is not None:
                self.metrics.observe_session_query()
        return payload

    def query(self, session_id: str,
              targets: tuple[str, ...] = (), trace=None) -> dict:
        """Read posteriors + ``log P(e)`` from a session's current state.

        One whole-case call; impossible evidence raises
        :class:`~repro.errors.EvidenceError` and the session stays usable
        — the next feasible update answers as usual.
        """
        session = self._checkout(session_id)
        with session.lock:
            span = (trace.start_span("session_query")
                    if trace is not None else None)
            attrs = {"evidence_vars": len(session.evidence)}
            payload = {
                "session": session.id,
                **self._read(session, tuple(targets), attrs),
                "evidence_vars": len(session.evidence),
                "served_by": "session",
            }
            session.queries += 1
            if span is not None:
                trace.end_span(span, **attrs)
        if self.metrics is not None:
            self.metrics.observe_session_query()
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
                "by_network": {
                    sid: s.describe() for sid, s in self._sessions.items()
                },
            }

    def close_all(self) -> None:
        """Shut down: evict every session, releasing its pin."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for sid in list(self._sessions):
                session = self._sessions.pop(sid)
                self._settle_locked(session, "server shutdown")
                self.registry.unpin(session.entry)

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close_all()
