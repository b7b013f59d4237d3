"""Intra-clique (fine-grained) calibration.

Messages execute in the plan's sequential order; *within* each table
operation the entry range is chunked across the backend's workers (two
parallel batch invocations per message: marginalize, absorb).  This is
Fast-BNI's fine granularity in isolation: it balances load inside big
cliques but pays one dispatch round-trip per operation — the
"large parallelization overhead since the table operations are invoked
frequently" shortcoming the paper attributes to this family (§1).
"""

from __future__ import annotations

import numpy as np

from repro.exec.kernels import absorb_chunk, marg_chunk, ratio_vector
from repro.jt.structure import TreeState
from repro.parallel.chunking import chunk_ranges


def _chunks(engine, size: int) -> list[tuple[int, int]]:
    """Entry ranges of one table (a single range below ``min_chunk``)."""
    return chunk_ranges(
        size, engine.backend.num_workers * engine.config.chunks_per_worker,
        min_chunk=engine.config.min_chunk)


def parallel_marginalize(engine, src: np.ndarray, triples, sep_size: int,
                         imap: np.ndarray | None) -> np.ndarray:
    """Chunked marginalization; master reduces the partial tables."""
    chunks = _chunks(engine, src.size)
    if len(chunks) == 1:
        engine.count("inline_layers")
        return marg_chunk(src, 0, src.size, triples, sep_size, imap)
    tasks = [(marg_chunk, (src, lo, hi, triples, sep_size, imap))
             for lo, hi in chunks]
    engine.count("dispatch_batches")
    engine.count("dispatch_tasks", len(tasks))
    return np.sum(engine.backend.run_batch(tasks), axis=0)


def parallel_absorb(engine, dst: np.ndarray, triples,
                    imap: np.ndarray | None, ratio: np.ndarray) -> None:
    """Chunked ``dst *= extend(ratio)`` (write-disjoint ranges)."""
    chunks = _chunks(engine, dst.size)
    updates = ((triples, imap, ratio),)
    if len(chunks) == 1:
        absorb_chunk(dst, 0, dst.size, updates)
        return
    tasks = [(absorb_chunk, (dst, lo, hi, updates)) for lo, hi in chunks]
    engine.count("dispatch_batches")
    engine.count("dispatch_tasks", len(tasks))
    engine.backend.run_batch(tasks)


def calibrate_intra(engine, state: TreeState) -> None:
    """Sequential message schedule, parallel table operations."""
    cliques = [p.values for p in state.clique_pot]
    seps = [p.values for p in state.sep_pot]
    messages = engine.plan.compiled_messages(maps=True)
    for upward, src, dst, sep_id, edge, m_marg, m_abs in messages:
        marg, absorb = edge.triples(upward)
        new_sep = parallel_marginalize(engine, cliques[src], marg,
                                       edge.sep_size, m_marg)
        new_sep = engine.normalize_message(state, new_sep, track=upward)
        ratio = ratio_vector(new_sep, seps[sep_id])
        parallel_absorb(engine, cliques[dst], absorb, m_abs, ratio)
        seps[sep_id][:] = new_sep
    engine.count("messages", len(messages))
