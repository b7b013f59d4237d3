"""Per-model query-result memo.

Exactly repeated queries — dashboards, retries, polling monitors — are
answered without touching the tree at all: finished results are kept
under ``(evidence, targets)``, and a full-posterior entry also answers
any subset of its targets.  Everything else is a miss the batcher sends
to its flush.

Admission: a result is stored on the *second* sighting of its key.  The
first leaves only the key's hash in a **doorkeeper** (the one-hit-wonder
filter of TinyLFU; Einziger, Friedman & Manes, ACM TOS 2017), so a
stream of novel queries costs a hash each, not a row each, and a key's
third sighting is the first hit.  The doorkeeper holds at most
``max_memo`` hashes (oldest out first) and is charged in
:meth:`InferenceCache.total_bytes`.

What an entry holds: one contiguous float64 *row* — the result's
posteriors side by side, then log P(e).  Which columns belong to which
variable is a :class:`_Layout` shared by every entry with the same
target list, and the :class:`~repro.jt.engine.InferenceResult` (views
into the row) is rebuilt only on a hit.  The evidence key is packed into
``bytes`` (sorted ``(variable id, state)`` pairs), each finding resolved
through the model's plan (:meth:`~repro.exec.plan.MessagePlan.finding`),
as the engine resolves it.  Every row is a fresh
copy, so an entry never keeps the engine's output buffer — or a whole
multi-case flush block — alive.  A cold full-posterior entry so holds
1.8 KB on hailfinder and 3.5 KB on pathfinder, against 10.4 and 22.8 KB
as an ``InferenceResult`` of per-variable views (tracemalloc;
``docs/service.md``).  Only exact models have a memo: the registry
builds none for an approximate entry.

One :class:`InferenceCache` serves one resident model (the registry hangs
it off the :class:`~repro.service.registry.ModelEntry`), so the "network"
component of the ``(network, evidence, targets)`` key is implicit.  Byte
accounting (:meth:`InferenceCache.total_bytes`) charges what an entry
holds — its row, its key and a fixed per-entry overhead — plus each
layout in use and each doorkeeper hash, so ``max_bytes`` (``serve
--cache-mb``) bounds resident memory; the total is folded into the
registry's resident-set budget, so a model whose memo grows is charged
for it and becomes a bigger eviction target.

Thread safety: all bookkeeping happens under one lock.  Hard evidence
only: the batcher routes soft likelihood vectors to the per-case path
before the cache is consulted.
"""

from __future__ import annotations

import sys
import threading
from array import array
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from repro.approx.engine import ApproxInferenceResult
from repro.errors import EvidenceError, ReproError
from repro.exec.plan import compile_plan
from repro.jt.engine import InferenceResult
from repro.jt.structure import JunctionTree

#: Result-memo entries per model.
DEFAULT_MAX_MEMO = 4096
#: Per-model memo byte budget, charged against the registry budget on top
#: of the engine's own residency.
DEFAULT_MAX_BYTES = 32 * 1024 * 1024
#: Unused by the cache: ``bench/inputs.py`` is their only reader, and
#: they go when it drops the import.
DEFAULT_MAX_STATES = 8
DEFAULT_MIN_OVERLAP = 0.5

#: Canonical evidence key: sorted ``(variable id, state index)`` pairs,
#: packed (:meth:`InferenceCache.evidence_key`).
EvidenceKey = bytes

#: What an entry costs besides its row's data and its key: the LRU's node
#: and table slot, the key and value tuples and the row's ndarray header
#: (tracemalloc on CPython 3.11, NumPy 2.x: ~200 + 112 bytes).
_ENTRY_OVERHEAD = 320
#: What one doorkeeper hash costs: its int and its ``OrderedDict`` slot
#: and node (tracemalloc on CPython 3.11: ~120 bytes).
_DOOR_HASH_BYTES = 120


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


class _Layout:
    """Where each target's columns sit in a memo row.

    ``spans`` maps names, in the stored result's order, to ``(lo, hi)``
    column bounds; ``width`` posterior columns are followed by log P(e).
    """

    __slots__ = ("names", "spans", "width", "entries", "nbytes")

    def __init__(self, names: tuple[str, ...], cards: list[int]) -> None:
        self.names = names
        self.spans: dict[str, tuple[int, int]] = {}
        lo = 0
        for name, card in zip(names, cards):
            hi = lo + card
            self.spans[name] = (lo, hi)
            lo = hi
        self.width = lo
        #: Entries using this layout; the memo drops it at zero.
        self.entries = 0
        # The dict, the names, the span tuples and their bounds (ints
        # past 256 are objects of their own).
        self.nbytes = (sys.getsizeof(self.spans) + sys.getsizeof(names)
                       + sum(sys.getsizeof(span) + (32 if span[1] > 256 else 0)
                             for span in self.spans.values()))

    def row(self, result: InferenceResult) -> np.ndarray:
        """``result`` copied into one fresh, read-only row."""
        row = np.empty(self.width + 1)
        np.concatenate(list(result.posteriors.values()), out=row[:self.width])
        row[self.width] = result.log_evidence
        row.flags.writeable = False
        return row

    def result(self, row: np.ndarray,
               names: tuple[str, ...] = ()) -> InferenceResult:
        """The result ``row`` holds (views into it), narrowed to ``names``."""
        spans = (self.spans if not names
                 else {name: self.spans[name] for name in names})
        return InferenceResult(
            posteriors={name: row[lo:hi] for name, (lo, hi) in spans.items()},
            log_evidence=float(row[self.width]),
            meta={"served_by": "cache"})


def _entry_bytes(key: tuple, row: np.ndarray) -> int:
    """Resident bytes of one entry: row, key and the fixed overhead."""
    evidence_key, targets_key = key
    return (_ENTRY_OVERHEAD + row.nbytes + sys.getsizeof(evidence_key)
            + (sys.getsizeof(targets_key) if targets_key else 0))


class InferenceCache:
    """Per-model result memo (see the module docstring).

    Parameters
    ----------
    tree:
        The model's compiled junction tree; its plan resolves evidence
        keys.
    max_memo / max_bytes:
        Capacities: memo entries (and doorkeeper hashes) and the byte
        budget of both.  Exceeding either evicts least-recently-used
        entries; past the byte budget with no entry left, the oldest
        hashes go.
    """

    def __init__(self, tree: JunctionTree, *,
                 max_memo: int = DEFAULT_MAX_MEMO,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.max_memo = max_memo
        self.max_bytes = max_bytes
        #: The engines' plan for ``tree`` (shared, not rebuilt): evidence
        #: keys resolve findings through it.
        self._plan = compile_plan(tree)
        #: ``(evidence key, targets key) -> (layout, row)``.
        self._memo: "OrderedDict[tuple, tuple[_Layout, np.ndarray]]" = \
            OrderedDict()
        #: Hashes of keys sighted once and not stored, oldest first.
        self._door: "OrderedDict[int, None]" = OrderedDict()
        self._layouts: dict[tuple[str, ...], _Layout] = {}
        self._memo_bytes = 0
        self._lock = threading.Lock()
        self._counters = {"result_hits": 0, "result_misses": 0,
                          "declined": 0, "evicted_results": 0}

    # ----------------------------------------------------------------- keys
    def evidence_key(self, evidence: "dict | EvidenceKey | None"
                     ) -> EvidenceKey:
        """Canonical key for ``evidence`` on this model's network.

        Labels and indices canonicalize identically, so ``{"smoke":
        "yes"}`` and ``{"smoke": 0}`` share an entry; unknown variables or
        states raise :class:`~repro.errors.EvidenceError`.  ``bytes`` is a
        key already derived on this tree and passes through.
        """
        if isinstance(evidence, bytes):
            return evidence
        finding = self._plan.finding
        pairs = sorted(finding(name, state)
                       for name, state in (evidence or {}).items())
        return array("I", [x for pair in pairs for x in pair]).tobytes()

    @staticmethod
    def targets_key(targets: tuple[str, ...]) -> tuple[str, ...]:
        """Order-insensitive targets key (``()`` = all variables)."""
        return tuple(sorted(set(targets)))

    # ------------------------------------------------------------------ memo
    def lookup_result(self, evidence_key: EvidenceKey,
                      targets: tuple[str, ...]) -> InferenceResult | None:
        """Memo lookup; a full-posterior entry also answers subset queries.

        A hit is rebuilt from its row, with ``meta["served_by"] ==
        "cache"``.
        """
        tkey = self.targets_key(targets)
        names: tuple[str, ...] = ()
        with self._lock:
            key = (evidence_key, tkey)
            hit = self._memo.get(key)
            if hit is None and tkey:
                key = (evidence_key, ())
                hit = self._memo.get(key)
                names = tkey
            if hit is None:
                self._counters["result_misses"] += 1
                return None
            self._memo.move_to_end(key)
            self._counters["result_hits"] += 1
        layout, row = hit
        return layout.result(row, names)

    def store_result(self, evidence_key: EvidenceKey,
                     targets: tuple[str, ...], result: InferenceResult) -> None:
        """Memoise a finished result (evicting LRU entries over budget)."""
        key = (evidence_key, self.targets_key(targets))
        with self._lock:
            self._store_locked(key, result)

    def _store_locked(self, key: tuple, result: InferenceResult) -> None:
        names = tuple(result.posteriors)
        layout = self._layouts.get(names)
        if layout is None:
            layout = _Layout(names, [v.size for v in
                                     result.posteriors.values()])
        row = layout.row(result)
        if not layout.entries:
            self._layouts[names] = layout
            self._memo_bytes += layout.nbytes
        layout.entries += 1
        old = self._memo.pop(key, None)
        if old is not None:
            self._drop_locked(key, old)
        self._memo[key] = (layout, row)
        self._memo_bytes += _entry_bytes(key, row)
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
        """Admit the ``(evidence, targets, result)`` cases the cold path
        just served: a key's first sighting leaves its hash in the
        doorkeeper, its second stores the result.  Evidence failing
        validation is skipped: the cold path already reported it."""
        for evidence, targets, result in items:
            try:
                key = (self.evidence_key(evidence), self.targets_key(targets))
            except EvidenceError:
                continue
            seen = hash(key)
            with self._lock:
                if seen in self._door:
                    del self._door[seen]
                    self._store_locked(key, result)
                else:
                    self._door[seen] = None
                    self._evict_locked()

    # ------------------------------------------------------------- lifecycle
    def total_bytes(self) -> int:
        """Resident bytes of the memo: its entries, their layouts and the
        doorkeeper's hashes."""
        with self._lock:
            return self._bytes_locked()

    def _bytes_locked(self) -> int:
        return self._memo_bytes + len(self._door) * _DOOR_HASH_BYTES

    def _drop_locked(self, key: tuple,
                     entry: tuple[_Layout, np.ndarray]) -> None:
        layout, row = entry
        self._memo_bytes -= _entry_bytes(key, row)
        layout.entries -= 1
        if not layout.entries:
            del self._layouts[layout.names]
            self._memo_bytes -= layout.nbytes

    def _evict_locked(self) -> None:
        while len(self._door) > self.max_memo:
            self._door.popitem(last=False)
        while self._memo and (len(self._memo) > self.max_memo
                              or self._bytes_locked() > self.max_bytes):
            self._drop_locked(*self._memo.popitem(last=False))
            self._counters["evicted_results"] += 1
        while self._door and self._bytes_locked() > self.max_bytes:
            self._door.popitem(last=False)

    def stats(self) -> dict:
        """JSON-ready counters for the ``cache_stats`` endpoint."""
        with self._lock:
            lookups = (self._counters["result_hits"]
                       + self._counters["result_misses"])
            return {
                "memo_entries": len(self._memo),
                "doorkeeper_hashes": len(self._door),
                "bytes": self._bytes_locked(),
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
