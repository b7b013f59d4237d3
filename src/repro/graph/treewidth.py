"""Treewidth estimates.

Junction-tree cost is exponential in the induced width of the elimination
order, so these helpers drive both the generators (to build analogs whose
inference is laptop-feasible) and the benchmark reports (to characterise
each network).
"""

from __future__ import annotations

import math

from repro.graph.moralize import Adjacency, copy_adjacency


def ordering_width(adjacency: Adjacency, order: tuple[str, ...] | list[str]) -> int:
    """Induced width of an elimination order (max clique size − 1)."""
    work = copy_adjacency(adjacency)
    width = 0
    for v in order:
        nbrs = list(work[v])
        width = max(width, len(nbrs))
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                work[u].add(w)
                work[w].add(u)
        for u in nbrs:
            work[u].discard(v)
        del work[v]
    return width


def log_max_clique_weight(
    cliques: list[frozenset[str]] | tuple[frozenset[str], ...],
    cardinalities: dict[str, int],
) -> float:
    """log10 of the largest clique potential-table size.

    This is the paper's actual complexity driver ("the potential table size
    ... increases dramatically with the number of random variables in the
    clique and the number of states").
    """
    best = 0.0
    for c in cliques:
        w = sum(math.log10(cardinalities[v]) for v in c)
        best = max(best, w)
    return best


def total_clique_weight(
    cliques: list[frozenset[str]] | tuple[frozenset[str], ...],
    cardinalities: dict[str, int],
) -> int:
    """Sum of clique potential-table sizes (total calibration state space)."""
    total = 0
    for c in cliques:
        size = 1
        for v in c:
            size *= cardinalities[v]
        total += size
    return total
