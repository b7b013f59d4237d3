"""Maximal-clique extraction from an elimination sequence.

Each eliminated node contributes the candidate clique ``{v} ∪ nbrs(v)``
(at elimination time).  Every maximal clique of the triangulated graph
appears among these candidates; non-maximal candidates are subsets of an
earlier candidate and are filtered out.
"""

from __future__ import annotations

from repro.graph.moralize import Adjacency


def elimination_cliques(candidates: tuple[frozenset[str], ...]) -> list[frozenset[str]]:
    """Filter elimination candidates down to the maximal cliques.

    Candidates arrive in elimination order; a candidate that is a subset of
    any *other kept* candidate is dropped.  With a perfect elimination
    order, a candidate can only be contained in a clique formed *later*
    (when its eliminated vertex's neighbourhood has grown into a larger
    clique minus the vertex), so a single backward pass suffices; we keep a
    subset check against every kept clique sharing a member, for
    robustness.
    """
    kept: list[frozenset[str]] = []
    #: variable -> kept cliques holding it; a clique containing ``cand``
    #: holds every member of it, so one member's list is enough to search.
    holding: dict[str, list[frozenset[str]]] = {}
    # Process largest-first so subset checks only need to look at kept items.
    for cand in sorted(candidates, key=len, reverse=True):
        pool = holding.get(next(iter(cand)), ()) if cand else kept
        if not any(cand <= k for k in pool):
            kept.append(cand)
            for var in cand:
                holding.setdefault(var, []).append(cand)
    # Deterministic order: by (size desc, sorted members) is unstable across
    # runs only if members tie — include members in the key.
    kept.sort(key=lambda c: (-len(c), tuple(sorted(c))))
    return kept


def is_clique(adjacency: Adjacency | dict[str, frozenset[str]], nodes: frozenset[str]) -> bool:
    """True iff ``nodes`` is pairwise adjacent in ``adjacency``."""
    members = list(nodes)
    for i, u in enumerate(members):
        nbrs = adjacency[u]
        for w in members[i + 1:]:
            if w not in nbrs:
                return False
    return True


def maximal_cliques_check(
    adjacency: Adjacency | dict[str, frozenset[str]],
    cliques: list[frozenset[str]],
) -> bool:
    """Validate that each listed clique is a clique and none contains another.

    (Completeness — that *every* maximal clique is listed — is checked in
    tests against networkx's Bron–Kerbosch implementation.)
    """
    for i, c in enumerate(cliques):
        if not is_clique(adjacency, c):
            return False
        for j, d in enumerate(cliques):
            if i != j and c <= d:
                return False
    return True
