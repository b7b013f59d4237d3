"""Entry-range chunking policies.

The unit of parallel work everywhere is a half-open range ``[lo, hi)`` of
flat table entries.  :func:`chunk_ranges` splits one table;
:func:`chunk_weighted` splits a *set* of tables into a balanced flat task
pool — the paper's "flattening" step, which packs all potential-table
entries of a layer into tasks regardless of which clique they belong to.
"""

from __future__ import annotations

from repro.errors import BackendError

#: Oversubscription factor of the entry-range modes: a table or flattened
#: layer pool is cut into up to ``num_workers * CHUNKS_PER_WORKER`` tasks,
#: letting faster workers steal the remainder of an unbalanced layer.
CHUNKS_PER_WORKER = 2


def chunk_ranges(size: int, num_chunks: int, min_chunk: int = 1) -> list[tuple[int, int]]:
    """Split ``[0, size)`` into at most ``num_chunks`` near-equal ranges.

    Never returns chunks smaller than ``min_chunk`` (except possibly the
    last); returns a single chunk when the table is too small to split.
    """
    if size < 0 or num_chunks < 1 or min_chunk < 1:
        raise BackendError(
            f"invalid chunking parameters size={size} num_chunks={num_chunks} "
            f"min_chunk={min_chunk}"
        )
    if size == 0:
        return []
    k = min(num_chunks, max(1, size // min_chunk))
    base = size // k
    extra = size % k
    out: list[tuple[int, int]] = []
    lo = 0
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def chunk_cases(num_cases: int, num_workers: int,
                min_block: int = 1) -> list[tuple[int, int]]:
    """Split a batch of inference cases into contiguous case blocks.

    The batched calibration engine parallelises over the *case* axis: each
    block ``[lo, hi)`` of case rows calibrates independently (row slices of
    every table are disjoint), so one dispatch covers the whole batch — no
    per-layer barriers between blocks.  ``min_block`` keeps blocks large
    enough that the per-block NumPy calls stay vectorised.
    """
    if num_workers < 1:
        raise BackendError(
            f"invalid case chunking: num_workers={num_workers}")
    return chunk_ranges(num_cases, num_workers, min_chunk=min_block)


def chunk_weighted(
    sizes: list[int],
    num_chunks: int,
    min_chunk: int = 1,
) -> list[list[tuple[int, int, int]]]:
    """Flatten several tables into ``num_chunks`` balanced task groups.

    ``sizes[i]`` is the entry count of item *i*.  Returns task groups, each
    a list of ``(item, lo, hi)`` sub-ranges, sized so every group covers
    roughly ``total/num_chunks`` entries.  Items larger than the target are
    split across groups; small items are packed together — this is what
    gives the hybrid engine its load balance on trees mixing huge and tiny
    cliques.
    """
    if num_chunks < 1:
        raise BackendError(f"num_chunks must be >= 1, got {num_chunks}")
    total = sum(sizes)
    if total == 0:
        return []
    target = max(min_chunk, -(-total // num_chunks))  # ceil division
    groups: list[list[tuple[int, int, int]]] = []
    current: list[tuple[int, int, int]] = []
    room = target
    for item, size in enumerate(sizes):
        lo = 0
        while lo < size:
            take = min(size - lo, room)
            current.append((item, lo, lo + take))
            lo += take
            room -= take
            if room == 0:
                groups.append(current)
                current = []
                room = target
    if current:
        groups.append(current)
    return groups
