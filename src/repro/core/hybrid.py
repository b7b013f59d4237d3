"""Hybrid calibration — the Fast-BNI contribution (paper §2).

Per BFS layer, the nested structure (for each message → for each table
entry) is *flattened*: the entries of **all** tables touched in the layer
are packed into one balanced pool of entry-range tasks
(:func:`repro.parallel.chunking.chunk_weighted`) and dispatched in a single
batch.  Each layer needs exactly two batches (marginalize pool, absorb
pool), independent of how many cliques it contains.

The paper's three claimed advantages map directly onto this code:

* **workload balancing** — ``chunk_weighted`` splits huge cliques across
  tasks and packs tiny cliques together, so a layer mixing both keeps all
  workers busy;
* **smaller parallelization overhead** — two dispatches per layer instead
  of two per message (intra) or one task per message (inter);
* **adaptability** — deep narrow trees (chains) still expose entry-level
  parallelism inside each layer's single message, and wide flat trees
  expose message-level parallelism inside the pooled chunks.
"""

from __future__ import annotations

import numpy as np

from repro.exec.kernels import absorb_chunk, marg_chunk, ratio_vector
from repro.jt.structure import TreeState
from repro.parallel.chunking import CHUNKS_PER_WORKER, chunk_weighted


def run_marg_group(specs: tuple[tuple, ...]) -> list[tuple[int, np.ndarray]]:
    """Execute a group of marginalization sub-ranges; return partials.

    Each spec is ``(lo, hi, msg_key, src values, stride triples, sep size,
    cached map or None)``.
    """
    return [
        (key, marg_chunk(src, lo, hi, triples, sep_size, imap))
        for lo, hi, key, src, triples, sep_size, imap in specs
    ]


def run_absorb_group(specs: tuple[tuple, ...]) -> None:
    """Execute a group of absorb sub-ranges ``(lo, hi, dst values, updates)``
    (write-disjoint)."""
    for lo, hi, dst, updates in specs:
        absorb_chunk(dst, lo, hi, updates)


def _runs_inline(engine, sizes: list[int]) -> bool:
    """Whether a flattened pool is too small to be worth dispatching.

    Below the threshold the dispatch+GIL round-trip can only lose, so the
    master runs the (already-flattened) specs inline.  This adaptive
    cut-off is the Python analogue of OpenMP's near-free fork/join on tiny
    regions and is what keeps the hybrid engine's overhead small on trees
    with many tiny cliques (paper advantage (ii)).
    """
    threshold = max(engine.config.parallel_threshold,
                    engine.config.min_chunk * engine.backend.num_workers)
    return engine.backend.name == "serial" or sum(sizes) < threshold


def _run_pool(engine, run_group, items: list[tuple], sizes: list[int],
              inline: bool) -> list:
    """Run one flattened pool: table ``items[i]`` spans ``sizes[i]`` entries.

    ``run_group`` receives a tuple of ``(lo, hi, *item)`` sub-ranges; the
    pool is cut into balanced groups across tables (one task each) unless
    it runs ``inline`` as a single group.  Returns the groups' results.
    """
    if inline:
        return [run_group(tuple((0, size, *item)
                                for item, size in zip(items, sizes)))]
    groups = chunk_weighted(
        sizes, engine.backend.num_workers * CHUNKS_PER_WORKER,
        min_chunk=engine.config.min_chunk)
    tasks = [(run_group, (tuple((lo, hi, *items[i]) for i, lo, hi in group),))
             for group in groups]
    engine.count("dispatch_batches")
    engine.count("dispatch_tasks", len(tasks))
    return engine.backend.run_batch(tasks)


def _layer_pass(engine, state: TreeState, cliques: list[np.ndarray],
                seps: list[np.ndarray], layer: list[tuple]) -> None:
    """One layer of compiled messages with flattening."""
    upward = layer[0][0]
    engine.count("messages", len(layer))

    # ---- batch 1: flattened marginalizations.
    margs = [(i, cliques[src], edge.triples(upward)[0], edge.sep_size, m_marg)
             for i, (_, src, _dst, _sep, edge, m_marg, _) in enumerate(layer)]
    sizes = [m[1].size for m in margs]
    inline = _runs_inline(engine, sizes)
    if inline:
        engine.count("inline_layers")
    new_seps: list[np.ndarray | None] = [None] * len(layer)
    for results in _run_pool(engine, run_marg_group, margs, sizes, inline):
        for key, partial in results:
            new_seps[key] = (partial if new_seps[key] is None
                             else new_seps[key] + partial)

    # ---- master: normalise messages, build ratios, group by destination.
    by_dst: dict[int, list] = {}
    for new_sep, (_, _src, dst, sep_id, edge, _, m_abs) in zip(new_seps, layer):
        new_sep = engine.normalize_message(state, new_sep, track=upward)
        ratio = ratio_vector(new_sep, seps[sep_id])
        seps[sep_id][:] = new_sep
        by_dst.setdefault(dst, []).append(
            (edge.triples(upward)[1], m_abs, ratio))

    # ---- batch 2: flattened absorptions (chunks of one dst are disjoint;
    # all updates for a dst ride in every chunk of that dst).
    targets = [(cliques[dst], tuple(updates)) for dst, updates in by_dst.items()]
    sizes = [t[0].size for t in targets]
    _run_pool(engine, run_absorb_group, targets, sizes,
              _runs_inline(engine, sizes))


def calibrate_hybrid(engine, state: TreeState) -> None:
    """Layer-synchronous hybrid collect + distribute."""
    cliques = [p.values for p in state.clique_pot]
    seps = [p.values for p in state.sep_pot]
    for layer in engine.plan.compiled_layers(maps=True):
        _layer_pass(engine, state, cliques, seps, layer)
