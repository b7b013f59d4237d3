"""Batched multi-case calibration: one schedule pass for N inference cases.

Why this exists
---------------
The paper's headline workload is 2000 inference cases over *one* compiled
junction tree.  Looping :meth:`repro.core.fastbni.FastBNI.infer` amortises
the compile step but still walks the message schedule once per case: 2000
Python-level traversals, each built from small NumPy calls whose fixed
per-call overhead dominates on mid-sized tables.

This module vectorises the *case axis* instead.  Every clique and
separator potential lives in one table-major batch arena (``(N, size)``
blocks, allocated by :meth:`repro.exec.plan.MessagePlan.fresh_batch_state`),
all cases' evidence is absorbed in one vectorised pass, and the compiled
plan's layer schedule runs **once**, each message executed by the engine's
kernel backend (:meth:`repro.exec.kernels.KernelBackend.message_batch`) as
a ``(k, table)``-wide operation.  The 2000-case workload becomes one pass
of large contiguous NumPy operations — ``O(messages)`` C-level calls in
total instead of ``O(messages × cases)``.

On the ``native`` kernel backend none of that arena is needed: each case
block is **one foreign call**
(:meth:`repro.exec.native.backend.NativeKernels.infer_cases`) that
applies the evidence matrix, runs the messages each case needs from the
plan's calibrated prior (``meta["messages_run"]`` counts them; on the
staged path it is every message of every case), reads the posteriors
and computes log P(e) over per-thread scratch (case after case, or 16
cases at a time table-major when the plan's arena is small enough) —
``O(blocks)`` foreign calls and no per-message or per-variable
interpreter work.  A sampled request runs the same calls;
its recorder gets their time and the messages run.  The staged path
above stays for the ``numpy`` backend (a recorder there gets
absorb and schedule timings); the test suite pins the two against each
other at 1e-12.

Parallelism composes on the orthogonal axis: case rows are independent, so
the batch is split into contiguous case *blocks*
(:func:`repro.parallel.chunking.chunk_cases`) and each block's full
calibration is dispatched as a single task to the engine's backend — one
dispatch per block for the whole batch, not two per layer.  A block is a
row slice of the batch state's ``(N, size)`` tables (staged) or of the
evidence matrix (whole-case, where a thread-dispatched block runs GIL-free
from first evidence entry to last posterior): threads share the arena, so
nothing is copied in or out.  On a plan the native kernels run
table-major (``case_block``), every call gets at least one whole block
of 16 cases, so a batch of fewer than 32 cases stays one call whatever
the worker count.

Correctness contract: row *i* of every batched table evolves exactly as a
per-case :class:`~repro.jt.structure.TreeState` would for case *i* (same
geometry, same normalisation points), so batched results match
``FastBNI.infer`` case-by-case to float64 round-off; the test suite pins
both against the enumeration oracle.

Limits: hard evidence only (soft/virtual evidence would need per-case
likelihood columns; ``FastBNI.infer_batch`` runs such cases one by one
through ``FastBNI.infer``).
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import EvidenceError
from repro.exec.kernels import KernelBackend
from repro.obs.trace import current_kernel_hooks
from repro.jt.engine import BatchInferenceResult
from repro.jt.query import all_posteriors_batch, log_evidence_batch
from repro.parallel.chunking import chunk_cases

if TYPE_CHECKING:
    from repro.core.fastbni import FastBNI


def case_evidence(case) -> dict:
    """Evidence dict of a workload item (a ``TestCase`` or a plain dict)."""
    return dict(case) if isinstance(case, Mapping) else case.evidence


def case_soft_evidence(case):
    """Soft-evidence dict of a workload item, or ``None``."""
    return None if isinstance(case, Mapping) else getattr(case, "soft_evidence", None)


def calibrate_case_block(
    cliques: list[np.ndarray],
    seps: list[np.ndarray],
    kernels: KernelBackend,
    messages: list[tuple],
    row_lo: int,
    row_hi: int,
) -> np.ndarray:
    """Two-phase calibration of case rows ``[row_lo, row_hi)``.

    The batched analogue of one full collect+distribute pass: every message
    of the plan's compiled sequence runs once, each as a ``(k, table)``-wide
    kernel over the block's ``k`` rows of the batch state's ``(n, size)``
    tables.  Blocks touch disjoint rows of every table, so any number of
    blocks runs concurrently with no synchronisation; returns the block's
    per-case ``log_norm`` vector.
    """
    log_norm = np.zeros(row_hi - row_lo)
    for upward, src, dst, sep_id, edge, *_ in messages:
        log_totals = kernels.message_batch(
            cliques[src][row_lo:row_hi], cliques[dst][row_lo:row_hi],
            seps[sep_id][row_lo:row_hi], edge, upward, case_offset=row_lo)
        if upward:
            log_norm += log_totals
    return log_norm


#: Smallest case block worth dispatching as its own task: below this many
#: rows the per-block Python/dispatch overhead outweighs what the block's
#: vectorised kernels save, so small batches stay in fewer, fatter blocks.
MIN_CASE_BLOCK = 4


def infer_cases(
    engine: "FastBNI",
    cases,
    targets: tuple[str, ...] = (),
    min_block: int = MIN_CASE_BLOCK,
) -> BatchInferenceResult:
    """Calibrate all ``cases`` on ``engine``'s compiled plan in one batch.

    Cases are ``TestCase``-like objects (``.evidence`` mapping names to
    states) or plain evidence dicts; they may observe heterogeneous
    variable sets.  Hard evidence only — soft evidence raises (callers that
    mix both use ``FastBNI.infer_batch``).
    """
    cases = list(cases)
    softs = [case_soft_evidence(c) for c in cases]
    if any(softs):
        raise EvidenceError(
            "batched calibration supports hard evidence only; use "
            "infer_batch to run soft-evidence cases one by one"
        )
    n = len(cases)
    if n == 0:
        return BatchInferenceResult(posteriors={}, log_evidence=np.zeros(0),
                                    meta={"cases": 0.0, "blocks": 0.0})

    tree = engine.tree
    plan = engine.plan
    spec = plan.spec
    kernels = engine.kernels
    read_ids = plan.variable_ids(targets)  # unknown targets raise here
    evidence = [case_evidence(c) for c in cases]

    workers = engine.backend.num_workers
    whole_cases = kernels.compiles_cases
    # A call runs its cases table-major only in whole blocks, so give
    # every call at least one.
    if whole_cases:
        min_block = max(min_block, kernels.case_block(plan))
    blocks = chunk_cases(n, workers, min_block=min_block)
    engine.metrics = {"dispatch_batches": 0, "dispatch_tasks": 0,
                      "inline_layers": 0, "messages": spec.num_messages,
                      "batch_cases": n, "batch_blocks": len(blocks)}
    if len(blocks) == 1:
        engine.count("inline_layers")
    else:
        engine.count("dispatch_batches")
        engine.count("dispatch_tasks", len(blocks))
    meta = {"cases": float(n), "blocks": float(len(blocks))}

    # An installed recorder (repro.obs: a sampled request upstream) gets
    # the stage timings; None on the untraced hot path.
    hooks = current_kernel_hooks()
    if whole_cases:
        # Whole cases, one foreign call per block (native kernels): a
        # thread-dispatched block spends its entire life GIL-free.
        matrix = plan.evidence_matrix(evidence)
        start = time.perf_counter() if hooks is not None else 0.0
        done = engine.backend.run_batch(
            [(kernels.infer_cases, (plan, matrix[lo:hi], read_ids, lo))
             for lo, hi in blocks])
        *blocks_out, visited = zip(*done)
        posteriors, log_evidence = (
            b[0] if len(done) == 1 else np.concatenate(b)
            for b in blocks_out)
        walked, dense, run = map(sum, zip(*visited))
        if hooks is not None:
            hooks.on_schedule(backend=kernels.name, messages=run,
                              seconds=time.perf_counter() - start,
                              arena_bytes=plan.arena_bytes, cases=n)
        engine.metrics.update(messages_run=run, entries_walked=walked,
                              entries_dense=dense)
        return BatchInferenceResult(
            posteriors=plan.posterior_views(read_ids, posteriors),
            log_evidence=log_evidence,
            meta={**meta, "messages_run": float(run)})

    state = plan.fresh_batch_state(n)
    absorb_start = time.perf_counter() if hooks is not None else 0.0
    plan.absorb_evidence_batch(state, evidence)
    if hooks is not None:
        hooks.on_absorb(time.perf_counter() - absorb_start,
                        cliques=tree.num_cliques)

    # The compiled sequence is built once per plan; blocks only read it.
    messages = plan.compiled_messages()
    tasks = [(calibrate_case_block,
              (state.clique_pot, state.sep_pot, kernels, messages, lo, hi))
             for lo, hi in blocks]
    schedule_start = time.perf_counter() if hooks is not None else 0.0
    for (lo, hi), block_norm in zip(blocks, engine.backend.run_batch(tasks)):
        state.log_norm[lo:hi] = block_norm
    if hooks is not None:
        hooks.on_schedule(backend=kernels.name,
                          messages=spec.num_messages,
                          seconds=time.perf_counter() - schedule_start,
                          arena_bytes=plan.arena_bytes, cases=n)

    return BatchInferenceResult(
        posteriors=all_posteriors_batch(state, targets),
        log_evidence=log_evidence_batch(state),
        meta={**meta, "messages_run": float(n * spec.num_messages)})
