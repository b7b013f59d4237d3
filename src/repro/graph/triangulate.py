"""Greedy triangulation (chordal completion) of the moral graph.

Exact minimum-fill triangulation is NP-hard, so — like FastBN, pgmpy and
libDAI — we use greedy elimination heuristics.  Eliminating node *v*
connects all of *v*'s remaining neighbours pairwise (the *fill-in*); the
union of original and fill edges is chordal, and the elimination order
certifies it (it is a perfect elimination order of the reversed sequence).

Heuristics
----------
``min-fill``    pick the node whose elimination adds fewest fill edges
                (the standard default; usually smallest cliques);
``min-degree``  pick the node with fewest remaining neighbours;
``min-weight``  pick the node minimising the product of state counts of
                ``{v} ∪ nbrs(v)`` — directly targets potential-table size,
                which is what junction-tree cost actually depends on.

Ties break on insertion order.  ``min-weight`` scores by the exact
integer product, so equal products tie.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.errors import JunctionTreeError
from repro.graph.moralize import Adjacency, copy_adjacency

HEURISTICS = ("min-fill", "min-degree", "min-weight")


@dataclass(frozen=True)
class EliminationResult:
    """Output of :func:`triangulate`."""

    #: Triangulated adjacency (original edges plus fill edges).
    adjacency: dict[str, frozenset[str]]
    #: The elimination order used.
    order: tuple[str, ...]
    #: Fill edges added, as sorted tuples.
    fill_edges: tuple[tuple[str, str], ...]
    #: For each eliminated node, the clique ``{v} ∪ nbrs(v)`` at elimination.
    elimination_cliques: tuple[frozenset[str], ...]


def _fill_count(adj: Adjacency, v: str) -> int:
    nbrs = list(adj[v])
    missing = 0
    for i, u in enumerate(nbrs):
        au = adj[u]
        for w in nbrs[i + 1:]:
            if w not in au:
                missing += 1
    return missing


def _weight(v: str, adj: Adjacency, cards: dict[str, int]) -> int:
    return cards[v] * math.prod(cards[u] for u in adj[v])


def triangulate(
    adjacency: Adjacency,
    heuristic: str = "min-fill",
    cardinalities: dict[str, int] | None = None,
) -> EliminationResult:
    """Triangulate ``adjacency`` with the given greedy heuristic.

    ``cardinalities`` is required for ``min-weight`` (state count per node).
    The input adjacency is not modified.

    Each vertex keeps its score; eliminating *v* re-scores only the
    vertices whose score it can change — *v*'s neighbours and, for
    ``min-fill`` (whose fill edges join them), their neighbours too — and
    the next vertex comes from a lazy heap keyed ``(score, rank)``.  A
    score is recomputed from the same neighbour set a full re-scan would
    use, so the order is the scan's.
    """
    if heuristic not in HEURISTICS:
        raise JunctionTreeError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")
    if heuristic == "min-weight" and cardinalities is None:
        raise JunctionTreeError("min-weight triangulation requires cardinalities")

    work = copy_adjacency(adjacency)
    # Insertion-order rank for deterministic tie-breaking.
    rank = {v: i for i, v in enumerate(adjacency)}

    def score(v: str) -> int:
        if heuristic == "min-fill":
            return _fill_count(work, v)
        if heuristic == "min-degree":
            return len(work[v])
        assert cardinalities is not None
        return _weight(v, work, cardinalities)

    scores = {v: score(v) for v in adjacency}
    heap = [(s, rank[v], v) for v, s in scores.items()]
    heapq.heapify(heap)

    order: list[str] = []
    fill_edges: list[tuple[str, str]] = []
    elim_cliques: list[frozenset[str]] = []
    filled = copy_adjacency(adjacency)

    while heap:
        s, _, v = heapq.heappop(heap)
        if scores.get(v) != s:
            continue  # eliminated, or re-scored since this entry
        del scores[v]
        nbrs = list(work[v])
        elim_cliques.append(frozenset([v, *nbrs]))
        # Fill-in: connect v's neighbours pairwise, in both graphs.
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if w not in work[u]:
                    work[u].add(w)
                    work[w].add(u)
                    filled[u].add(w)
                    filled[w].add(u)
                    fill_edges.append(tuple(sorted((u, w))))  # type: ignore[arg-type]
        # Remove v.
        for u in nbrs:
            work[u].discard(v)
        del work[v]
        order.append(v)

        stale = set(nbrs)
        if heuristic == "min-fill":
            for u in nbrs:
                stale |= work[u]
        for u in stale:
            s = score(u)
            if s != scores[u]:
                scores[u] = s
                heapq.heappush(heap, (s, rank[u], u))

    return EliminationResult(
        adjacency={u: frozenset(nbrs) for u, nbrs in filled.items()},
        order=tuple(order),
        fill_edges=tuple(fill_edges),
        elimination_cliques=tuple(elim_cliques),
    )


def is_chordal(adjacency: Adjacency | dict[str, frozenset[str]]) -> bool:
    """Chordality test via maximum-cardinality search (Tarjan & Yannakakis).

    MCS produces a perfect elimination order iff the graph is chordal; we
    run MCS and then verify the order.
    """
    adj = {u: set(nbrs) for u, nbrs in adjacency.items()}
    n = len(adj)
    if n == 0:
        return True
    # Maximum-cardinality search with a lazy max-heap.
    weight = {v: 0 for v in adj}
    visited: set[str] = set()
    heap: list[tuple[int, int, str]] = []
    rank = {v: i for i, v in enumerate(adj)}
    for v in adj:
        heapq.heappush(heap, (0, rank[v], v))
    peo: list[str] = []
    while len(peo) < n:
        while True:
            w, _, v = heapq.heappop(heap)
            if v not in visited and -w == weight[v]:
                break
        visited.add(v)
        peo.append(v)
        for u in adj[v]:
            if u not in visited:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], rank[u], u))
    peo.reverse()  # elimination order: reverse of MCS visit order
    pos = {v: i for i, v in enumerate(peo)}
    # Verify perfect elimination: later neighbours of v must form a clique,
    # it suffices to check the earliest later-neighbour's adjacency.
    for v in peo:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        pivot = min(later, key=lambda u: pos[u])
        for u in later:
            if u != pivot and u not in adj[pivot]:
                return False
    return True
