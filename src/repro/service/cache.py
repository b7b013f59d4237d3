"""Two-tier inference cache: calibrated states + query-result memo.

Serving traffic is repetitive in two distinct ways, and each tier targets
one of them:

* **Tier 1 — calibrated-state LRU** (:class:`IncrementalEngine` instances
  keyed by canonicalized evidence).  Consecutive queries against one
  network often differ by a handful of findings; re-propagating a cached
  state through :mod:`repro.jt.incremental` touches only the dirty part
  of the junction tree instead of paying a full two-phase calibration.
  A cold-served case enters as its *key* alone (value ``None``): the
  engine is cloned and updated only when a later lookup accepts that key
  as its base, so traffic that never repeats never builds a state.
* **Tier 2 — query-result memo** (finished
  :class:`~repro.jt.engine.InferenceResult` payloads keyed by
  ``(evidence, targets)``).  Exactly repeated queries — dashboards,
  retries, polling monitors — are answered without touching the tree at
  all.

One :class:`InferenceCache` serves one resident model (the registry hangs
it off the :class:`~repro.service.registry.ModelEntry`), so the "network"
component of the ISSUE's ``(network, evidence, targets)`` key is implicit.
Byte accounting (:meth:`InferenceCache.total_bytes`) is folded into the
registry's resident-set budget: a model whose cache grows is charged for
it and becomes a bigger eviction target.

Thread safety: all bookkeeping happens under one lock, while actual
propagation runs on states *popped* from the LRU (exclusively held by the
serving thread) and re-inserted afterwards — concurrent flushes never
share a mutating state.  Hard evidence only: soft likelihood vectors
cannot be expressed by the zeroing reduction, and the batcher routes them
to the per-case path before the cache is consulted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import EvidenceError, ReproError
from repro.jt.engine import InferenceResult
from repro.jt.evidence import check_evidence
from repro.jt.incremental import IncrementalEngine
from repro.jt.structure import JunctionTree

#: Calibrated states kept per model: each holds ~2x the separator tables
#: plus rebuilt clique masks, so a handful covers real traffic without
#: rivaling the model's own residency.
DEFAULT_MAX_STATES = 8
#: Result-memo entries per model (posterior vectors are tiny).
DEFAULT_MAX_MEMO = 4096
#: Per-model cache byte budget (states + memo), charged against the
#: registry budget on top of the engine's own residency.
DEFAULT_MAX_BYTES = 32 * 1024 * 1024
#: Minimum evidence overlap (Jaccard over (variable, state) findings)
#: before the delta path is preferred over the cold vectorised batch.
DEFAULT_MIN_OVERLAP = 0.5

#: Canonical evidence key: sorted ``(variable, state_index)`` pairs.
EvidenceKey = tuple


@dataclass(frozen=True)
class CacheServed:
    """One request answered by the cache, with how and how hard it was.

    ``source`` is ``"memo"`` (tier 2) or ``"delta"`` (tier 1);
    ``delta_size`` counts the evidence edits applied (0 for memo hits) and
    feeds the mean-delta-size serving metric.
    """

    result: InferenceResult
    source: str
    delta_size: int = 0


def canonical_evidence(tree: JunctionTree,
                       evidence: dict[str, str | int] | None) -> EvidenceKey:
    """Sorted ``(name, state_index)`` pairs — one key per evidence *set*.

    State labels and integer indices canonicalize identically, so
    ``{"smoke": "yes"}`` and ``{"smoke": 0}`` share a cache line.  Raises
    :class:`~repro.errors.EvidenceError` on unknown variables/states.
    """
    ev = check_evidence(tree, dict(evidence or {}))
    return tuple(sorted(ev.items()))


def _overlap(a: EvidenceKey, b: EvidenceKey) -> tuple[float, float]:
    """``(variable overlap, finding overlap)`` between two keys, each in [0, 1].

    The *variable* overlap drives the delta-vs-cold policy: a changed
    observation dirties exactly one clique — the delta path's cheapest
    case — so ``{"smoke": yes}`` vs ``{"smoke": no}`` must score 1.0, not
    0.0.  The *finding* overlap (exact (variable, state) pairs) breaks
    ties so the least-edits base state wins among same-variable
    candidates.  Both are shared-count fractions of the larger set.
    """
    va = {name for name, _state in a}
    vb = {name for name, _state in b}
    larger = max(len(va), len(vb))
    if not larger:
        return 1.0, 1.0
    return len(va & vb) / larger, len(set(a) & set(b)) / larger


def _project(result: InferenceResult, want: tuple[str, ...]) -> InferenceResult:
    if not want or set(result.posteriors) == set(want):
        return result
    return InferenceResult(
        posteriors={n: result.posteriors[n] for n in want},
        log_evidence=result.log_evidence,
        meta=dict(result.meta),
    )


def _result_bytes(result: InferenceResult) -> int:
    return 96 + sum(v.nbytes + 48 for v in result.posteriors.values())


class InferenceCache:
    """Per-model two-tier cache (see the module docstring).

    Parameters
    ----------
    tree:
        The model's compiled junction tree (shared with its engine, and
        with it the execution plan: cached states read the same
        CPT-product base tables the serving engine does).
    max_states / max_memo / max_bytes:
        LRU capacities: calibrated states, memo entries, and the combined
        byte budget (bytes are an upper bound — cloned states share
        arrays).  Exceeding any bound evicts least-recently-used entries.
    min_overlap:
        Evidence-overlap threshold (Jaccard on findings, 0..1) below which
        :meth:`serve_cases` declines a case so the batcher's vectorised
        cold path handles it.  ``0.0`` forces every hard-evidence case
        onto the delta path.
    """

    def __init__(self, tree: JunctionTree, *,
                 max_states: int = DEFAULT_MAX_STATES,
                 max_memo: int = DEFAULT_MAX_MEMO,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 min_overlap: float = DEFAULT_MIN_OVERLAP) -> None:
        if max_states < 1:
            raise EvidenceError(f"max_states must be >= 1, got {max_states}")
        self.tree = tree
        self.max_states = max_states
        self.max_memo = max_memo
        self.max_bytes = max_bytes
        self.min_overlap = min_overlap
        #: Never handed out, never updated: the clone source of last resort.
        self._baseline = IncrementalEngine(tree)
        #: ``None`` marks a seeded key whose state is not built yet.
        self._states: "OrderedDict[EvidenceKey, IncrementalEngine | None]" = OrderedDict()
        self._memo: "OrderedDict[tuple, InferenceResult]" = OrderedDict()
        self._memo_bytes = 0
        self._lock = threading.Lock()
        self._counters = {
            "result_hits": 0, "result_misses": 0,
            "delta_served": 0, "declined": 0,
            "delta_size_sum": 0, "messages_recomputed": 0,
            "seeded": 0, "evicted_states": 0, "evicted_results": 0,
            "discarded_states": 0,
        }

    # ----------------------------------------------------------------- keys
    def evidence_key(self, evidence: dict | None) -> EvidenceKey:
        """Canonical key for ``evidence`` on this model's network."""
        return canonical_evidence(self.tree, evidence)

    @staticmethod
    def targets_key(targets: tuple[str, ...]) -> tuple[str, ...]:
        """Order-insensitive targets key (``()`` = all variables)."""
        return tuple(sorted(set(targets)))

    # ---------------------------------------------------------------- tier 2
    def lookup_result(self, evidence_key: EvidenceKey,
                      targets: tuple[str, ...]) -> InferenceResult | None:
        """Memo lookup; a full-posterior entry also answers subset queries."""
        tkey = self.targets_key(targets)
        with self._lock:
            hit = self._memo.get((evidence_key, tkey))
            if hit is None and tkey:
                full = self._memo.get((evidence_key, ()))
                if full is not None:
                    hit = _project(full, tkey)
                    self._memo.move_to_end((evidence_key, ()))
            elif hit is not None:
                self._memo.move_to_end((evidence_key, tkey))
            if hit is None:
                self._counters["result_misses"] += 1
                return None
            self._counters["result_hits"] += 1
            return hit

    def store_result(self, evidence_key: EvidenceKey,
                     targets: tuple[str, ...], result: InferenceResult) -> None:
        """Memoise a finished result (evicting LRU entries over budget)."""
        key = (evidence_key, self.targets_key(targets))
        with self._lock:
            old = self._memo.pop(key, None)
            if old is not None:
                self._memo_bytes -= _result_bytes(old)
            self._memo[key] = result
            self._memo_bytes += _result_bytes(result)
            self._evict_locked()

    # ---------------------------------------------------------------- tier 1
    def _best_key_locked(self, evidence_key: EvidenceKey
                         ) -> tuple[EvidenceKey | None, float]:
        """Best base-state key for ``evidence_key`` and its variable overlap.

        Ranked by (variable overlap, finding overlap, recency): among
        same-variable candidates the one needing the fewest edits wins,
        and ties go to the most recently used state (``>=`` while walking
        the LRU in insertion order).
        """
        best_key, best_score = None, (-1.0, -1.0)
        for key in self._states:
            score = _overlap(key, evidence_key)
            if score >= best_score:
                best_key, best_score = key, score
        return best_key, max(best_score[0], 0.0)

    def seed(self, evidence: dict | None) -> None:
        """Record ``evidence`` as a (lazy) base state for future deltas.

        Inserts the canonical key only — no engine is cloned or updated
        until a lookup accepts the key (:meth:`serve_cases`) — so the
        batcher seeds every cold-served case for free.
        """
        self._seed_key(self.evidence_key(evidence))

    def _seed_key(self, key: EvidenceKey) -> None:
        with self._lock:
            if key in self._states:
                self._states.move_to_end(key)
                return
            self._states[key] = None
            self._counters["seeded"] += 1
            self._evict_locked()

    def session_state(self, evidence: dict | None = None) -> IncrementalEngine:
        """An independent calibrated state seeded for a streaming session.

        Clones the cached base state with the best evidence overlap (or
        the pristine baseline, which is all a still-lazy key stands for)
        — O(cliques), no propagation — and records ``evidence`` on the
        clone, so a session opening near previously served traffic starts
        with most of its messages already valid.  The clone is exclusively
        the caller's: it never re-enters the LRU and diverges freely from
        its source.
        """
        key = self.evidence_key(evidence)
        with self._lock:
            best_key, _score = self._best_key_locked(key)
            # States inside the LRU are quiescent (mutation only happens
            # while popped), so cloning under the lock is safe.
            state = (self._states.get(best_key) or self._baseline).clone()
        state.update(dict(key))  # key is pre-validated: cannot raise
        return state

    def serve_cases(self, cases: list[tuple[dict, tuple[str, ...]]]
                    ) -> list["CacheServed | BaseException | None"]:
        """Answer what the cache can; ``None`` marks cases for the cold path.

        ``cases`` are ``(hard_evidence, targets)`` pairs (already
        validated by the batcher).  Cases are chained in canonical-key
        order so near-duplicates evolve one popped state through minimal
        deltas ("group by nearest cached base state").  A case whose
        evidence turns out impossible yields its
        :class:`~repro.errors.EvidenceError` in that slot — bystanders are
        unaffected, matching the vectorised path's poisoned-batch rule.
        """
        out: list[CacheServed | BaseException | None] = [None] * len(cases)
        plan: list[tuple[int, EvidenceKey, tuple[str, ...]]] = []
        for i, (evidence, targets) in enumerate(cases):
            try:
                key = self.evidence_key(evidence)
            except ReproError as exc:
                # Requests validate at submit time, but the entry can be
                # replaced (register()) between then and the flush; the
                # error must stay per-case, never fail the whole pre-pass.
                out[i] = exc
                continue
            hit = self.lookup_result(key, targets)
            if hit is not None:
                out[i] = CacheServed(_project(hit, self.targets_key(targets)),
                                     "memo")
            else:
                plan.append((i, key, self.targets_key(targets)))
        for i, key, tkey in sorted(plan, key=lambda item: item[1]):
            with self._lock:
                best_key, score = self._best_key_locked(key)
                if score < self.min_overlap:
                    # Declined: only refreshes the state it considered.
                    if best_key is not None:
                        self._states.move_to_end(best_key)
                    self._counters["declined"] += 1
                    continue
                # min_overlap 0 means "always take the delta path":
                # bootstrap from a baseline clone on an empty tier 1.
                state = (self._states.pop(best_key)
                         if best_key is not None else self._baseline.clone())
            if state is None:
                # Accepted a lazy key: build the state it stands for now.
                state = self._baseline.clone()
                state.update(dict(best_key))  # pre-validated: cannot raise
            before = state.counters["up_recomputed"] + state.counters["down_recomputed"]
            try:
                result = state.infer(dict(key), tkey)
            except EvidenceError as exc:
                # Impossible evidence: drop the (possibly poisoned) state.
                out[i] = exc
                with self._lock:
                    self._counters["discarded_states"] += 1
                continue
            except ReproError as exc:
                # E.g. a target unknown after a register() swap: the state
                # itself is healthy, so keep it for the next case.
                out[i] = exc
                with self._lock:
                    self._states.setdefault(
                        self.evidence_key(state.evidence), state)
                continue
            messages = (state.counters["up_recomputed"]
                        + state.counters["down_recomputed"] - before)
            delta_size = int(result.meta.get("delta_size", 0))
            with self._lock:
                self._states[key] = state
                self._states.move_to_end(key)
                self._counters["delta_served"] += 1
                self._counters["delta_size_sum"] += delta_size
                self._counters["messages_recomputed"] += messages
                self._evict_locked()
            self.store_result(key, tkey, result)
            out[i] = CacheServed(result, "delta", delta_size)
        return out

    def record_cold(self, items: list[tuple[dict, tuple[str, ...], InferenceResult]]
                    ) -> None:
        """Absorb cases the vectorised cold path just served.

        Each ``(evidence, targets, result)`` triple is memoised (tier 2)
        and its evidence key seeded as a lazy base state (tier 1), so the
        *next* near-duplicate takes the delta path.  Evidence that fails
        validation is skipped silently — the cold path already reported
        any real error to its caller.
        """
        for evidence, targets, result in items:
            try:
                key = self.evidence_key(evidence)
            except EvidenceError:
                continue
            self.store_result(key, targets, result)
            self._seed_key(key)

    # ------------------------------------------------------------- lifecycle
    def total_bytes(self) -> int:
        """Upper-bound resident bytes (states + memo + baseline)."""
        with self._lock:
            return self._total_bytes_locked()

    def _total_bytes_locked(self) -> int:
        return (self._baseline.resident_bytes() + self._memo_bytes
                + sum(s.resident_bytes() for s in self._states.values()
                      if s is not None))

    def _evict_locked(self) -> None:
        while len(self._memo) > self.max_memo:
            _, old = self._memo.popitem(last=False)
            self._memo_bytes -= _result_bytes(old)
            self._counters["evicted_results"] += 1
        while (len(self._states) > self.max_states
               or (self._states
                   and self._total_bytes_locked() > self.max_bytes)):
            self._states.popitem(last=False)
            self._counters["evicted_states"] += 1
        while self._memo and self._total_bytes_locked() > self.max_bytes:
            _, old = self._memo.popitem(last=False)
            self._memo_bytes -= _result_bytes(old)
            self._counters["evicted_results"] += 1

    def clear(self) -> None:
        """Drop every cached state and memo entry (keeps counters)."""
        with self._lock:
            self._states.clear()
            self._memo.clear()
            self._memo_bytes = 0

    def stats(self) -> dict:
        """JSON-ready counters for the ``cache_stats`` endpoint."""
        with self._lock:
            lookups = (self._counters["result_hits"]
                       + self._counters["result_misses"])
            served = self._counters["delta_served"]
            return {
                "states": len(self._states),
                "memo_entries": len(self._memo),
                "bytes": self._total_bytes_locked(),
                "max_bytes": self.max_bytes,
                "min_overlap": self.min_overlap,
                "result_hits": self._counters["result_hits"],
                "result_misses": self._counters["result_misses"],
                "result_hit_rate": (self._counters["result_hits"] / lookups
                                    if lookups else 0.0),
                "delta_served": served,
                "declined": self._counters["declined"],
                "mean_delta_size": (self._counters["delta_size_sum"] / served
                                    if served else 0.0),
                "messages_recomputed": self._counters["messages_recomputed"],
                "seeded": self._counters["seeded"],
                "evicted_states": self._counters["evicted_states"],
                "evicted_results": self._counters["evicted_results"],
                "discarded_states": self._counters["discarded_states"],
            }
