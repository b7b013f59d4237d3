"""Per-model query-result memo.

Exactly repeated queries — dashboards, retries, polling monitors — are
answered without touching the tree at all: finished
:class:`~repro.jt.engine.InferenceResult` payloads are kept under
``(evidence, targets)``, and a full-posterior entry also answers any
subset of its targets.  Everything else is a miss the batcher sends to
its one vectorised ``infer_cases`` flush.

One :class:`InferenceCache` serves one resident model (the registry hangs
it off the :class:`~repro.service.registry.ModelEntry`), so the "network"
component of the ``(network, evidence, targets)`` key is implicit.  Byte
accounting (:meth:`InferenceCache.total_bytes`) is folded into the
registry's resident-set budget: a model whose memo grows is charged for
it and becomes a bigger eviction target.

Thread safety: all bookkeeping happens under one lock.  Hard evidence
only: the batcher routes soft likelihood vectors to the per-case path
before the cache is consulted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace

from repro.approx.engine import ApproxInferenceResult
from repro.errors import EvidenceError, ReproError
from repro.jt.engine import InferenceResult
from repro.jt.evidence import check_evidence
from repro.jt.structure import JunctionTree

#: Result-memo entries per model (posterior vectors are tiny).
DEFAULT_MAX_MEMO = 4096
#: Per-model memo byte budget, charged against the registry budget on top
#: of the engine's own residency.
DEFAULT_MAX_BYTES = 32 * 1024 * 1024
#: Unused by the cache: ``bench/inputs.py`` is their only reader, and
#: they go when it drops the import.
DEFAULT_MAX_STATES = 8
DEFAULT_MIN_OVERLAP = 0.5

#: Canonical evidence key: sorted ``(variable, state_index)`` pairs.
EvidenceKey = tuple


def canonical_evidence(tree: JunctionTree,
                       evidence: dict[str, str | int] | None) -> EvidenceKey:
    """Sorted ``(name, state_index)`` pairs — one key per evidence *set*.

    State labels and integer indices canonicalize identically, so
    ``{"smoke": "yes"}`` and ``{"smoke": 0}`` share a cache line.  Raises
    :class:`~repro.errors.EvidenceError` on unknown variables/states.
    """
    ev = check_evidence(tree, dict(evidence or {}))
    return tuple(sorted(ev.items()))


def project(result: InferenceResult, want: tuple[str, ...]) -> InferenceResult:
    """Narrow a result computed for a superset of targets down to ``want``.

    Preserves the result's class — an approx result keeps its per-target
    ``stderr`` (narrowed alongside), ``ess`` and diagnostics.
    """
    if not want or set(result.posteriors) == set(want):
        return result
    narrowed = {name: result.posteriors[name] for name in want}
    if isinstance(result, ApproxInferenceResult):
        return replace(result, posteriors=narrowed,
                       stderr={name: result.stderr[name] for name in want
                               if name in result.stderr})
    return InferenceResult(posteriors=narrowed,
                           log_evidence=result.log_evidence,
                           meta=dict(result.meta))


def _result_bytes(result: InferenceResult) -> int:
    return 96 + sum(v.nbytes + 48 for v in result.posteriors.values())


class InferenceCache:
    """Per-model result memo (see the module docstring).

    Parameters
    ----------
    tree:
        The model's compiled junction tree (canonicalizes evidence keys).
    max_memo / max_bytes:
        LRU capacities: memo entries and their byte budget.  Exceeding
        either evicts least-recently-used entries.
    """

    def __init__(self, tree: JunctionTree, *,
                 max_memo: int = DEFAULT_MAX_MEMO,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.tree = tree
        self.max_memo = max_memo
        self.max_bytes = max_bytes
        self._memo: "OrderedDict[tuple, InferenceResult]" = OrderedDict()
        self._memo_bytes = 0
        self._lock = threading.Lock()
        self._counters = {"result_hits": 0, "result_misses": 0,
                          "declined": 0, "evicted_results": 0}

    # ----------------------------------------------------------------- keys
    def evidence_key(self, evidence: "dict | EvidenceKey | None"
                     ) -> EvidenceKey:
        """Canonical key for ``evidence`` on this model's network; a tuple
        is a key already derived on this tree and passes through."""
        if isinstance(evidence, tuple):
            return evidence
        return canonical_evidence(self.tree, evidence)

    @staticmethod
    def targets_key(targets: tuple[str, ...]) -> tuple[str, ...]:
        """Order-insensitive targets key (``()`` = all variables)."""
        return tuple(sorted(set(targets)))

    # ------------------------------------------------------------------ memo
    def lookup_result(self, evidence_key: EvidenceKey,
                      targets: tuple[str, ...]) -> InferenceResult | None:
        """Memo lookup; a full-posterior entry also answers subset queries."""
        tkey = self.targets_key(targets)
        with self._lock:
            hit = self._memo.get((evidence_key, tkey))
            if hit is None and tkey:
                full = self._memo.get((evidence_key, ()))
                if full is not None:
                    hit = project(full, tkey)
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

    def serve_cases(self, cases: list[tuple]
                    ) -> list["InferenceResult | BaseException | None"]:
        """Answer what the memo holds; ``None`` marks cases for the cold path.

        ``cases`` are ``(evidence, targets)`` pairs, evidence as
        :meth:`evidence_key` takes it.  A case that does not validate (the
        entry was replaced by ``register()`` between submit and flush)
        yields its :class:`~repro.errors.ReproError` in that slot —
        bystanders are unaffected.
        """
        out: list[InferenceResult | BaseException | None] = []
        for evidence, targets in cases:
            try:
                out.append(self.lookup_result(self.evidence_key(evidence),
                                              targets))
            except ReproError as exc:
                out.append(exc)
        with self._lock:
            self._counters["declined"] += sum(o is None for o in out)
        return out

    def record_cold(self, items: list[tuple]) -> None:
        """Memoise the ``(evidence, targets, result)`` cases the vectorised
        cold path just served.  Evidence failing validation is skipped:
        the cold path already reported it."""
        for evidence, targets, result in items:
            try:
                key = self.evidence_key(evidence)
            except EvidenceError:
                continue
            self.store_result(key, targets, result)

    # ------------------------------------------------------------- lifecycle
    def total_bytes(self) -> int:
        """Upper-bound resident bytes of the memo."""
        with self._lock:
            return self._memo_bytes

    def _evict_locked(self) -> None:
        while self._memo and (len(self._memo) > self.max_memo
                              or self._memo_bytes > self.max_bytes):
            _, old = self._memo.popitem(last=False)
            self._memo_bytes -= _result_bytes(old)
            self._counters["evicted_results"] += 1

    def stats(self) -> dict:
        """JSON-ready counters for the ``cache_stats`` endpoint."""
        with self._lock:
            lookups = (self._counters["result_hits"]
                       + self._counters["result_misses"])
            return {
                "memo_entries": len(self._memo),
                "bytes": self._memo_bytes,
                "max_bytes": self.max_bytes,
                "result_hits": self._counters["result_hits"],
                "result_misses": self._counters["result_misses"],
                "result_hit_rate": (self._counters["result_hits"] / lookups
                                    if lookups else 0.0),
                # Always 0 since the memo is the only tier; bench/run.py
                # still reads it.
                "delta_served": 0,
                "declined": self._counters["declined"],
                "evicted_results": self._counters["evicted_results"],
            }
