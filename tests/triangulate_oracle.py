"""The full re-scan elimination loop: the oracle the incremental
:func:`repro.graph.triangulate.triangulate` must match order for order.

Every step re-scores every remaining vertex and takes the minimum
``(score, rank)``; quadratic, and kept only to check the library's loop.
"""

from __future__ import annotations

from repro.graph.moralize import Adjacency, copy_adjacency
from repro.graph.triangulate import _fill_count, _weight


def scan_order(adjacency: Adjacency, heuristic: str = "min-fill",
               cardinalities: dict[str, int] | None = None) -> tuple[str, ...]:
    """Elimination order of the re-scan loop under ``heuristic``."""
    work = copy_adjacency(adjacency)
    rank = {v: i for i, v in enumerate(adjacency)}

    def score(v: str) -> tuple[int, int]:
        if heuristic == "min-fill":
            return (_fill_count(work, v), rank[v])
        if heuristic == "min-degree":
            return (len(work[v]), rank[v])
        assert cardinalities is not None
        return (_weight(v, work, cardinalities), rank[v])

    order: list[str] = []
    remaining = set(adjacency)
    while remaining:
        v = min(remaining, key=score)
        nbrs = list(work[v])
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if w not in work[u]:
                    work[u].add(w)
                    work[w].add(u)
        for u in nbrs:
            work[u].discard(v)
        del work[v]
        remaining.discard(v)
        order.append(v)
    return tuple(order)
