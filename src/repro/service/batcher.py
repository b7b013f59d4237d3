"""Dynamic micro-batching: coalesce concurrent single-case queries.

The paper's contribution — amortising one compiled junction tree across
many evidence cases — is worth the most when *independent* requests are
coalesced server-side: ``BatchedFastBNI`` calibrates N cases in one pass
of the layer schedule for far less than N single passes, but only if a
batch exists.  This module manufactures those batches from single-case
traffic.

The flush policy is work-conserving — there is no timer.  A query that
arrives at an idle key is flushed on the next event-loop iteration
(together with whatever else that iteration made ready), queries that
arrive while the key's flush is running queue behind it and leave as one
batch the moment it completes, and a queue that reaches ``max_batch``
flushes at once: a lone query never waits, and batches form exactly when
arrivals outpace the engine.  A flush — cache pre-pass, one vectorised
``infer_cases`` call (the single-case ``infer`` when one exact case is
left), per-case retry — is one job on the flush worker,
and the loop fans its outcomes back out to the awaiting futures.  The
exception is a flush of one request on an entry that answers a case in
one foreign call (``ModelEntry.one_foreign_call``: native kernels in
``seq`` mode), which runs on the loop inside the flush's own callback —
one pinned registry lookup, the case, the reply resolved; no task, no
extra loop iteration: with one request queued there is nothing for the
executor hand-off (~70 µs) to overlap.  The price is a
loop stall of one case (hailfinder 0.08 ms, pathfinder 0.5 ms,
diabetes ~10 ms) that delays all other loop work: parsing and queuing
for every connection and every network, starting another key's flush,
``health``.  On a 2-core VM, ``health`` beside a stream of lone diabetes
queries reads p99 14–21 ms (8–9 ms with the case off the loop), while
lone queries spread over hailfinder and pathfinder gain throughput
(median req/s +79 % at 4 connections, +166 % at 2).  A session read,
one case that never enters a queue, follows the same rule
(:func:`runs_inline`).  ``record_cold`` never takes an executor job: it
is pure-Python dict work that holds the GIL on any thread, so it runs on
the loop once the replies are written (queued behind the resolved
futures, whose handlers encode and write first).

Queues are keyed by ``(network, engine kind)``: approximate and exact
queries for the same network never mix, and a flush against an
:class:`~repro.approx.ApproxBNI` entry runs **one shared particle
population** across all coalesced cases (common random numbers, one
topological sampling pass) — the sampling analog of the exact engine's
batched calibration.

Two request classes bypass or degrade the vectorised path deliberately:

* **soft evidence** cannot be expressed by the exact batched reduction, so
  those requests run the per-case engine directly (still off the event
  loop) — the approx engine weights likelihood vectors natively, so there
  soft evidence coalesces like any other case;
* an **impossible-evidence case poisons a whole vectorised flush** (the
  batched kernels raise on the first empty message; the sampler raises on
  an all-zero-weight case), so a failed flush is retried case-by-case —
  only the offending request gets the error, the coalesced bystanders
  still succeed.

Requests are validated *at submit time* (unknown variables/states, bad
likelihood vectors) so a malformed request is rejected immediately and can
never take down a batch it would have joined.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.approx.engine import ApproxInferenceResult
from repro.errors import EvidenceError, QueryError
from repro.jt.engine import InferenceResult
from repro.obs.trace import (ScheduleRecorder, Span, TraceContext,
                             install_kernel_hooks)
from repro.service.cache import project
from repro.service.metrics import ServiceMetrics
from repro.service.registry import ModelEntry, ModelRegistry

#: Largest flush: bounds one job's latency on bundled networks, large
#: enough to fill under load.
DEFAULT_MAX_BATCH = 64


@dataclass(frozen=True)
class QueryRequest:
    """One single-case posterior query."""

    evidence: dict = field(default_factory=dict)
    targets: tuple[str, ...] = ()
    soft_evidence: dict | None = None
    #: Engine routing override: ``"exact"``, ``"approx"``, ``"auto"`` or
    #: ``None`` (= the registry's default policy).
    engine: str | None = None
    #: Span recorder for a sampled request (:mod:`repro.obs`); ``None``
    #: on the unsampled hot path.  Excluded from equality/repr — two
    #: requests asking the same question are the same query.
    trace: TraceContext | None = field(default=None, compare=False,
                                       repr=False)


class _Pending:
    __slots__ = ("request", "future", "entry", "memo_evidence", "enqueued",
                 "queue_span", "outcome")

    def __init__(self, request: QueryRequest, future: asyncio.Future,
                 entry: ModelEntry, memo_key: tuple | None) -> None:
        self.request = request
        self.future = future
        #: The entry validated against, and the memo key that check derived.
        self.entry = entry
        self.memo_evidence = memo_key
        self.enqueued = time.monotonic()
        #: Open ``queue_wait`` span for a traced request (ended when the
        #: flush job picks the batch up).
        self.queue_span: Span | None = None
        #: Result or exception the flush job decided; the loop resolves
        #: ``future`` with it (futures are not thread-safe).
        self.outcome: InferenceResult | BaseException | None = None


def runs_inline(entry: ModelEntry) -> bool:
    """Whether engine work on one case of ``entry`` (a flush of one, a
    session read) runs on the loop rather than the flush worker."""
    return entry.one_foreign_call


class MicroBatcher:
    """Queue + flush scheduler in front of a :class:`ModelRegistry`.

    All public methods must be called from one asyncio event loop; the
    actual calibration runs on a private executor so the loop stays
    responsive while NumPy works.  That executor has exactly one worker,
    so work that leaves the loop runs one job at a time; inline work
    (:func:`runs_inline`) is the only kind that runs beside it.
    """

    def __init__(self, registry: ModelRegistry, *,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 metrics: ServiceMetrics | None = None) -> None:
        if max_batch < 1:
            raise EvidenceError(f"max_batch must be >= 1, got {max_batch}")
        self.registry = registry
        self.max_batch = max_batch
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        #: Queues keyed by (network, engine kind): exact and approx
        #: traffic for one network coalesce separately.
        self._queues: dict[tuple[str, str], list[_Pending]] = {}
        #: Flushes scheduled or running per key; a key absent here is
        #: idle, and a non-empty queue always has its key present.
        self._busy: dict[tuple[str, str], int] = {}
        #: Resolved by the flush that leaves ``_busy`` empty; exists only
        #: while a :meth:`drain` waits.
        self._drained: asyncio.Future | None = None
        #: Running flush tasks (the loop holds only weak references).
        self._inflight: set[asyncio.Task] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fastbni-flush")
        self._closed = False

    async def run_blocking(self, fn, *args, inline: bool = False):
        """``fn(*args)`` on the flush worker, or on the loop if ``inline``."""
        if inline:
            return fn(*args)
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args)

    async def get_entry(self, network: str,
                        engine: str | None = None) -> ModelEntry:
        """Registry lookup that never compiles on the event loop.

        A resident hit is a dict lookup under the registry lock and is
        taken right here; a miss (an unplanned ``auto`` included) compiles
        a junction tree and builds its tables, so it goes to the executor
        or every connection stalls behind it.
        """
        return (self.registry.get(network, engine=engine, load=False)
                or await self.run_blocking(
                    lambda: self.registry.get(network, engine=engine)))

    async def get_entry_pinned(self, network: str,
                               engine: str | None = None) -> ModelEntry:
        """:meth:`get_entry` with an atomic pin (no eviction window).

        ``registry.get`` followed by ``registry.pin`` leaves a gap in
        which a concurrent cold load can LRU-evict the entry and close
        its engine before the pin lands; any serving path that holds an
        entry across an ``await`` must take the pin atomically here and
        release it with ``registry.unpin`` when done.
        """
        return (self.registry.get_pinned(network, engine=engine, load=False)
                or await self.run_blocking(
                    lambda: self.registry.get_pinned(network, engine=engine)))

    def _validate(self, entry: ModelEntry, request: QueryRequest):
        """Check a request at submit; returns its memo key (or ``None``).

        Deriving a memo key is the engine's hard-evidence check on the
        same tree, and the key then serves the memo lookup and the write.
        """
        key = None
        if entry.cache is not None and not request.soft_evidence:
            key = entry.cache.evidence_key(request.evidence)
        else:
            entry.engine.validate_case(request.evidence,
                                       request.soft_evidence)
        for name in request.targets:
            if name not in entry.net:
                raise QueryError(f"unknown target variable {name!r}")
        return key

    def _observe_served(self, kind: str, result) -> None:
        ess = result.ess if isinstance(result, ApproxInferenceResult) else None
        self.metrics.observe_engine(kind, ess=ess)

    # ---------------------------------------------------------------- submit
    async def submit(self, network: str, request: QueryRequest) -> InferenceResult:
        """Answer one query, transparently coalescing it with its neighbours.

        Raises the underlying :class:`~repro.errors.ReproError` subclass on
        invalid networks/evidence — validation happens here, before the
        request can join (and poison) a batch.
        """
        if self._closed:
            raise EvidenceError("micro-batcher is closed")
        lookup_start = time.perf_counter()
        entry = await self.get_entry(network, request.engine)
        lookup_end = time.perf_counter()
        caps = entry.capabilities
        kind = caps.kind
        self.metrics.observe_stage("registry_lookup",
                                   lookup_end - lookup_start)
        if request.trace is not None:
            request.trace.record("registry_lookup", lookup_start, lookup_end,
                                 engine=kind,
                                 compiled_from_cache=entry.from_cache)
        memo_key = self._validate(entry, request)
        if request.soft_evidence and not caps.batched_soft_evidence:
            # This engine class cannot take likelihood vectors through its
            # vectorised flush (the exact batched reduction cannot express
            # them; samplers weight them natively), so the request takes
            # the per-case detour.  Re-resolve with an atomic pin — the
            # validation above ran unpinned, and ``entry`` may have been
            # evicted in the meantime (a resident re-hit is a dict lookup).
            entry = await self.get_entry_pinned(network, request.engine)
            try:
                result = await self._run_single(entry, request)
                self._observe_served(kind, result)
                return result
            finally:
                self.registry.unpin(entry)
        if not request.evidence and not request.soft_evidence:
            # Prior query: answered from the resident sampled prior with
            # its error bars when the engine recorded one, else from the
            # resident calibrated baseline.
            if self.metrics is not None:
                self.metrics.observe_baseline_hit()
            if entry.prior_result is not None:
                prior_result = entry.prior_result
            else:
                prior_result = InferenceResult(
                    posteriors=dict(entry.prior), log_evidence=0.0)
            self._observe_served(kind, prior_result)
            return project(prior_result, request.targets)

        loop = asyncio.get_running_loop()
        pending = _Pending(request, loop.create_future(), entry, memo_key)
        if request.trace is not None:
            pending.queue_span = request.trace.start_span("queue_wait")
        key = (network, kind)
        queue = self._queues.setdefault(key, [])
        queue.append(pending)
        if len(queue) >= self.max_batch:
            self._busy[key] = self._busy.get(key, 0) + 1
            self._flush(key)
        elif key not in self._busy:
            # Idle key: flush once this loop iteration has run, so every
            # request it made ready rides along.  A busy key's queue is
            # released by the flush that completes (``_flush_done``).
            self._busy[key] = 1
            loop.call_soon(self._flush, key)
        return await pending.future

    # ---------------------------------------------------------------- flush
    def _flush(self, key: tuple[str, str], behind: bool = False) -> None:
        """Start the key's queue as one flush; the caller counted it busy.

        A flush of one on a resident entry that :func:`runs_inline` is
        served right here (:meth:`_serve_inline`); any other flush is a
        task that serves it on the flush worker.
        """
        batch = self._queues.pop(key, None)
        if not batch:  # a full queue left between scheduling and now
            self._flush_done(key)
            return
        self.metrics.observe_flush(behind)
        entry = None
        if len(batch) == 1:
            try:
                entry = self.registry.get_pinned(*key, load=False)
            except Exception as exc:  # a closed registry: the answer
                self._resolve(batch, exc)
                self._flush_done(key)
                return
            if entry is not None and runs_inline(entry):
                self._serve_inline(key, batch, behind, entry)
                return
        task = asyncio.get_running_loop().create_task(
            self._run_batch(key, batch, behind, entry))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)
        task.add_done_callback(lambda _task: self._flush_done(key))

    def _flush_done(self, key: tuple[str, str]) -> None:
        """Uncount one flush; the last one out releases what queued behind."""
        self._busy[key] -= 1
        if not self._busy[key]:
            del self._busy[key]
            if key in self._queues:
                self._busy[key] = 1
                self._flush(key, behind=True)
            elif self._drained is not None and not self._busy:
                self._drained.set_result(None)
                self._drained = None

    @staticmethod
    def _union_targets(batch: list[_Pending]) -> tuple[str, ...]:
        """Targets covering every request; () (= all variables) if any wants all."""
        union: list[str] = []
        seen: set[str] = set()
        for pending in batch:
            if not pending.request.targets:
                return ()
            for name in pending.request.targets:
                if name not in seen:
                    seen.add(name)
                    union.append(name)
        return tuple(union)

    def _serve_inline(self, key: tuple[str, str], batch: list[_Pending],
                      behind: bool, entry: ModelEntry) -> None:
        """A flush of one, start to finish on the loop, pinned ``entry``
        released: the reply is resolved first, and ``record_cold`` and
        the key's release are queued behind it."""
        self.metrics.observe_inline_flush()
        cold_items = []
        try:
            cold_items = self._serve_batch(entry, batch, behind, True)
            self._resolve(batch)
        except BaseException as exc:  # noqa: BLE001 - as in _run_batch
            self._resolve(batch, exc)
            if not isinstance(exc, Exception):
                raise
        finally:
            self.registry.unpin(entry)
            asyncio.get_running_loop().call_soon(
                self._record_inline, key, entry, cold_items)

    def _record_inline(self, key: tuple[str, str], entry: ModelEntry,
                       cold_items: list) -> None:
        try:
            if cold_items:
                entry.cache.record_cold(cold_items)
        finally:
            self._flush_done(key)

    async def _run_batch(self, key: tuple[str, str], batch: list[_Pending],
                         behind: bool, entry: ModelEntry | None) -> None:
        """A flush on the flush worker; ``entry`` is its pinned entry if
        :meth:`_flush` already took one."""
        try:
            if entry is None:
                entry = await self.get_entry_pinned(*key)
            cold_items = await self.run_blocking(
                self._serve_batch, entry, batch, behind, False)
            self._resolve(batch)
            if cold_items:
                # Offer the results to the memo (stored on a key's second
                # sighting) — after one yield, so every resolved handler
                # has encoded and written its reply first.  Best-effort:
                # the handler below skips the futures already resolved.
                await asyncio.sleep(0)
                entry.cache.record_cold(cold_items)
        # BaseException, not ReproError: whatever stops a flush between
        # enqueue and fan-out (a closed registry, a failed reload, a
        # shut-down executor, cancellation) must still resolve every
        # future, or its client waits forever.
        except BaseException as exc:  # noqa: BLE001
            self._resolve(batch, exc)
            if not isinstance(exc, Exception):
                raise
        finally:
            if entry is not None:
                self.registry.unpin(entry)

    @staticmethod
    def _resolve(batch: list[_Pending],
                 failure: BaseException | None = None) -> None:
        """Hand each unresolved future its outcome, else ``failure``."""
        for pending in batch:
            if pending.future.done():
                continue
            outcome = pending.outcome if pending.outcome is not None else failure
            if isinstance(outcome, BaseException):
                pending.future.set_exception(outcome)
            else:
                pending.future.set_result(outcome)

    def _serve_batch(self, entry: ModelEntry, batch: list[_Pending],
                     behind: bool, inline: bool) -> list:
        """One flush, start to finish, on the flush worker (or the loop).

        Memo pre-pass, one vectorised ``infer_cases`` over what it
        missed (``infer`` for a lone exact case, which on pathfinder
        costs ~20 % less than a batch of one on native), and
        the per-case retry of a poisoned batch of more than one.  Sets every
        ``pending.outcome`` (spans are recorded before the loop resolves
        the future: once the client coroutine resumes it finishes the
        trace, and a late span would miss the buffer) and returns the
        ``(evidence, targets, result)`` items for ``record_cold``.
        """
        picked_up = time.monotonic()
        for pending in batch:
            self.metrics.observe_stage(
                "queue_wait", max(picked_up - pending.enqueued, 0.0))
            if pending.queue_span is not None:
                pending.request.trace.end_span(
                    pending.queue_span, fill=len(batch), behind_flush=behind)
        if entry.cache is not None:
            batch = self._serve_from_cache(entry, batch)
            if not batch:
                return []
        engine, kind = entry.engine, entry.engine_kind
        cases = [pending.request.evidence for pending in batch]
        # Soft evidence joins the flush where the engine batches it (the
        # sampler shares one particle population across every coalesced
        # case — common random numbers, one pass over the topology).
        soft = ({"soft_cases": [p.request.soft_evidence for p in batch]}
                if entry.capabilities.batched_soft_evidence else {})
        # A sampled request in the batch turns on the kernel hooks: the
        # engine reports its kernel time and messages (native: the one
        # whole-case call; numpy: per-message and per-absorption
        # timings too) through a thread-local installed around the engine
        # call only.  The engine runs the same code either way.
        recorder = (ScheduleRecorder()
                    if any(p.request.trace is not None for p in batch)
                    else None)
        targets = self._union_targets(batch)
        exec_start = time.perf_counter()
        try:
            with install_kernel_hooks(recorder):
                if len(batch) == 1 and entry.capabilities.exact:
                    # A flush of one is the engine's single-case read: no
                    # batch arena (numpy), no batched wrapper (native).
                    results = [engine.infer(cases[0], targets)]
                else:
                    results = list(engine.infer_cases(cases, targets=targets,
                                                      **soft))
        except EvidenceError as exc:
            # An impossible case empties a message (exact) or kills
            # every particle weight (approx) and aborts the whole
            # vectorised pass; re-run case-by-case so only that request
            # fails.  A flush of one was that case: the error is its
            # answer.
            if len(batch) == 1:
                batch[0].outcome = exc
            else:
                self._run_individually(entry, batch)
            return []
        exec_end = time.perf_counter()
        self.metrics.observe_stage("execute", exec_end - exec_start)
        self.metrics.observe_batch(len(batch))
        cold_items = []
        for pending, case_result in zip(batch, results):
            self._observe_served(kind, case_result)
            trace = pending.request.trace
            if trace is not None:
                attrs = {"fill": len(batch), "engine": kind,
                         "inline": inline, **recorder.summary()}
                if isinstance(case_result, ApproxInferenceResult):
                    attrs["ess"] = case_result.ess
                    attrs["num_samples"] = case_result.num_samples
                trace.record("execute", exec_start, exec_end, **attrs)
            pending.outcome = project(case_result, pending.request.targets)
            if entry.cache is not None:
                cold_items.append((pending.memo_evidence,
                                   pending.request.targets, pending.outcome))
        return cold_items

    def _serve_from_cache(self, entry: ModelEntry,
                          batch: list[_Pending]) -> list[_Pending]:
        """Memo pre-pass; returns the cases left for the cold path.

        Runs :meth:`~repro.service.cache.InferenceCache.serve_cases`,
        answers its hits with ``served_by: "cache"``, and hands back the
        misses so the vectorised flush only calibrates novel evidence.
        """
        for p in batch:
            if p.entry is not entry:  # register() replaced it: key it again
                p.memo_evidence = p.request.evidence
        requests = [(p.memo_evidence, p.request.targets) for p in batch]
        lookup_start = time.perf_counter()
        outcomes = entry.cache.serve_cases(requests)
        lookup_end = time.perf_counter()
        self.metrics.observe_stage("cache_lookup", lookup_end - lookup_start)
        remaining: list[_Pending] = []
        for pending, outcome in zip(batch, outcomes):
            trace = pending.request.trace
            if trace is not None:
                served = (None if outcome is None
                          or isinstance(outcome, BaseException) else "memo")
                trace.record("cache_lookup", lookup_start, lookup_end,
                             fill=len(batch), served=served)
            if outcome is None:
                remaining.append(pending)
                continue
            if isinstance(outcome, BaseException):
                pending.outcome = outcome
                continue
            self.metrics.observe_memo_serve()
            pending.outcome = project(outcome, pending.request.targets)
            self._observe_served("exact", pending.outcome)
        return remaining

    def _run_individually(self, entry: ModelEntry,
                          batch: list[_Pending]) -> None:
        self.metrics.observe_fallback(len(batch))
        for pending in batch:
            request = pending.request
            try:
                pending.outcome = entry.engine.infer(
                    request.evidence, request.targets,
                    soft_evidence=request.soft_evidence)
            except Exception as exc:  # noqa: BLE001 - this case's answer
                pending.outcome = exc
            else:
                self._observe_served(entry.engine_kind, pending.outcome)

    async def _run_single(self, entry: ModelEntry,
                          request: QueryRequest) -> InferenceResult:
        """Per-case path for requests the vectorised kernels cannot express."""
        self.metrics.observe_fallback()
        return await self.run_blocking(
            lambda: entry.engine.infer(request.evidence, request.targets,
                                       soft_evidence=request.soft_evidence))

    # ------------------------------------------------------------- lifecycle
    async def drain(self) -> None:
        """Wait until every queue has flushed and every flush has finished.

        Nothing needs forcing: a queued request always has a flush
        scheduled for the next iteration or running ahead of it.  The
        wait is one future that the last ``_flush_done`` resolves, so a
        flush that never reports done leaves ``drain`` idle, not spinning.
        """
        while self._busy:
            if self._drained is None:
                self._drained = asyncio.get_running_loop().create_future()
            # Shielded: one cancelled drainer must not cancel the others.
            await asyncio.shield(self._drained)

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        await self.drain()
        self._executor.shutdown(wait=True)
