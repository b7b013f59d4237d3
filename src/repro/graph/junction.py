"""Junction-tree skeleton: maximum-weight spanning tree over the cliques.

Edges of the clique graph are weighted by separator size ``|Ci ∩ Cj|``; any
maximum-weight spanning tree of the clique graph of a chordal graph
satisfies the running-intersection property (RIP).  For disconnected
networks we join the spanning forest into a single tree with empty
separators (size-1 scalar messages), so every engine can assume one rooted
tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import JunctionTreeError


@dataclass(frozen=True)
class JunctionTreeSkeleton:
    """Pure-structure junction tree: cliques plus tree edges.

    ``cliques[i]`` is the variable-name set of clique *i*; ``edges`` holds
    ``(i, j, separator)`` triples with ``i < j``.
    """

    cliques: tuple[frozenset[str], ...]
    edges: tuple[tuple[int, int, frozenset[str]], ...]

    @property
    def num_cliques(self) -> int:
        return len(self.cliques)

    def neighbors(self) -> list[list[int]]:
        nbrs: list[list[int]] = [[] for _ in self.cliques]
        for i, j, _ in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return nbrs

    def validate_rip(self) -> None:
        """Raise unless the running-intersection property holds.

        RIP: for every variable, the cliques containing it induce a
        connected subtree.  Checked by union-find over tree edges restricted
        to each variable.
        """
        holders = _holders(self.cliques)
        carried: dict[str, list[tuple[int, int]]] = {}
        for i, j, sep in self.edges:
            for var in sep:
                carried.setdefault(var, []).append((i, j))
        for var in sorted(holders):
            held = holders[var]
            if len(held) <= 1:
                continue
            parent = {i: i for i in held}

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i, j in carried.get(var, ()):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
            roots = {find(i) for i in held}
            if len(roots) != 1:
                raise JunctionTreeError(
                    f"running-intersection violated for variable {var!r}: "
                    f"{len(roots)} components among cliques {held}"
                )


def _holders(cliques) -> dict[str, list[int]]:
    """Variable -> ascending indices of the cliques holding it."""
    holders: dict[str, list[int]] = {}
    for i, c in enumerate(cliques):
        for var in c:
            holders.setdefault(var, []).append(i)
    return holders


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def build_junction_tree(cliques: list[frozenset[str]]) -> JunctionTreeSkeleton:
    """Kruskal maximum-weight spanning tree over the clique graph.

    Candidate edges are all clique pairs with non-empty intersection,
    sorted by (separator size desc, deterministic tie-break).  If the
    spanning structure is a forest, components are chained together with
    empty separators so the result is always one tree.
    """
    if not cliques:
        raise JunctionTreeError("cannot build a junction tree with zero cliques")
    n = len(cliques)
    # Only cliques sharing a variable intersect: pair those up.
    pairs = {(i, j) for held in _holders(cliques).values()
             for k, i in enumerate(held) for j in held[k + 1:]}
    candidates = [(len(cliques[i] & cliques[j]), i, j) for i, j in pairs]
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))

    uf = _UnionFind(n)
    edges: list[tuple[int, int, frozenset[str]]] = []
    for w, i, j in candidates:
        if uf.union(i, j):
            edges.append((i, j, cliques[i] & cliques[j]))
            if len(edges) == n - 1:
                break

    # Join remaining components (disconnected moral graph) with empty
    # separators, chaining component representatives deterministically.
    if len(edges) < n - 1:
        reps = sorted({uf.find(i) for i in range(n)})
        for a, b in zip(reps, reps[1:]):
            if uf.union(a, b):
                edges.append((min(a, b), max(a, b), frozenset()))

    skeleton = JunctionTreeSkeleton(tuple(cliques), tuple(edges))
    skeleton.validate_rip()
    return skeleton
