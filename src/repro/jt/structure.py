"""The junction-tree data structure shared by every inference engine.

A compiled :class:`JunctionTree` holds cliques and separators with their
variable domains, the rooted topology (parent/children), and the CPT
assignment.  It owns *no* calibration logic — engines attach working
potentials via :meth:`JunctionTree.fresh_state` and run their own message
schedules, so the compile step is paid once and shared across engines and
test cases (exactly how FastBN amortises it across the 2000-case workload).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.errors import JunctionTreeError
from repro.graph.cliques import elimination_cliques
from repro.graph.junction import build_junction_tree
from repro.graph.moralize import moralize
from repro.graph.treewidth import total_clique_weight
from repro.graph.triangulate import triangulate
from repro.potential.domain import Domain
from repro.potential.factor import Potential
from repro.potential.ops import multiply_into


@dataclass
class Clique:
    """A clique node: domain over its variables plus assigned CPT indices."""

    id: int
    domain: Domain
    #: Indices into the network's CPT list (``net.cpts``) assigned here.
    cpt_indices: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.domain.size


@dataclass
class Separator:
    """A separator edge between cliques ``a`` and ``b`` (``a < b``)."""

    id: int
    a: int
    b: int
    domain: Domain

    @property
    def size(self) -> int:
        return self.domain.size

    def other(self, clique_id: int) -> int:
        if clique_id == self.a:
            return self.b
        if clique_id == self.b:
            return self.a
        raise JunctionTreeError(f"clique {clique_id} not on separator {self.id}")


class JunctionTree:
    """Compiled junction tree: cliques, separators, rooted topology."""

    def __init__(
        self,
        net: BayesianNetwork,
        cliques: list[Clique],
        separators: list[Separator],
        heuristic: str | None = None,
    ) -> None:
        self.net = net
        self.cliques = cliques
        self.separators = separators
        #: The triangulation heuristic the cliques came from (``None`` for
        #: a tree rebuilt from its serialised form).
        self.heuristic = heuristic
        #: adjacency: clique id -> list of (neighbour clique id, separator id)
        self.nbrs: list[list[tuple[int, int]]] = [[] for _ in cliques]
        for sep in separators:
            self.nbrs[sep.a].append((sep.b, sep.id))
            self.nbrs[sep.b].append((sep.a, sep.id))
        for lst in self.nbrs:
            lst.sort()
        self.root: int = 0
        self.parent: list[int] = []
        self.parent_sep: list[int] = []
        self.children: list[list[tuple[int, int]]] = []
        self.depth: list[int] = []
        self._var_to_cliques: dict[str, list[int]] = {}
        for c in cliques:
            for name in c.domain.names:
                self._var_to_cliques.setdefault(name, []).append(c.id)
        self.set_root(0)

    # ---------------------------------------------------------------- rooting
    def set_root(self, root: int) -> None:
        """Re-root the tree, recomputing parent/children/depth via BFS."""
        n = len(self.cliques)
        if not 0 <= root < n:
            raise JunctionTreeError(f"root {root} out of range (0..{n - 1})")
        self.root = root
        parent = [-1] * n
        parent_sep = [-1] * n
        depth = [-1] * n
        children: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        order = [root]
        depth[root] = 0
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v, sep_id in self.nbrs[u]:
                if depth[v] == -1 and v != root:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    parent_sep[v] = sep_id
                    children[u].append((v, sep_id))
                    order.append(v)
        if len(order) != n:
            raise JunctionTreeError("junction tree is disconnected")
        self.parent = parent
        self.parent_sep = parent_sep
        self.children = children
        self.depth = depth

    def bfs_order(self) -> list[int]:
        """Clique ids in BFS order from the current root."""
        order = [self.root]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            order.extend(v for v, _ in self.children[u])
        return order

    @property
    def num_cliques(self) -> int:
        return len(self.cliques)

    @property
    def num_separators(self) -> int:
        return len(self.separators)

    def height(self) -> int:
        """Tree height in clique hops from the current root."""
        return max(self.depth) if self.depth else 0

    # ------------------------------------------------------------- potentials
    def fresh_state(self) -> "TreeState":
        """Allocate working potentials initialised from the assigned CPTs."""
        return TreeState(self)

    def fresh_batch_state(self, num_cases: int,
                          base_cliques: "list | None" = None) -> "BatchTreeState":
        """Allocate a batched calibration state for ``num_cases`` cases.

        ``base_cliques`` optionally supplies the CPT-product clique tables
        (one 1-D array per clique) so engines can pay the CPT multiply once
        and reuse it across batches.
        """
        return BatchTreeState(self, num_cases, base_cliques)

    # ----------------------------------------------------------------- lookup
    def cliques_with(self, var_name: str) -> list[int]:
        """Ids of cliques whose domain contains ``var_name``."""
        try:
            return self._var_to_cliques[var_name]
        except KeyError:
            raise JunctionTreeError(f"variable {var_name!r} is in no clique") from None

    def smallest_clique_with(self, var_name: str) -> int:
        ids = self.cliques_with(var_name)
        return min(ids, key=lambda i: (self.cliques[i].size, i))

    # ------------------------------------------------------------- statistics
    def stats(self) -> dict[str, float]:
        sizes = [c.size for c in self.cliques]
        sep_sizes = [s.size for s in self.separators]
        return {
            "num_cliques": len(self.cliques),
            "num_separators": len(self.separators),
            "max_clique_size": max(sizes),
            "total_clique_size": sum(sizes),
            "total_separator_size": sum(sep_sizes),
            "height": self.height(),
        }


class TreeState:
    """Per-inference working potentials (clique + separator tables).

    ``log_norm`` accumulates the log of every normalisation constant pulled
    out during propagation, so engines can report ``log P(evidence)`` even
    with scaled messages.
    """

    __slots__ = ("tree", "clique_pot", "sep_pot", "log_norm")

    def __init__(self, tree: JunctionTree) -> None:
        self.tree = tree
        cpts = tree.net.cpts
        self.clique_pot: list[Potential] = []
        for clique in tree.cliques:
            pot = Potential(clique.domain)  # ones
            for k in clique.cpt_indices:
                multiply_into(pot, Potential.from_cpt(cpts[k]))
            self.clique_pot.append(pot)
        self.sep_pot: list[Potential] = [Potential(s.domain) for s in tree.separators]
        self.log_norm: float = 0.0


class BatchTreeState:
    """Working potentials for ``n`` inference cases calibrated together.

    The batched analogue of :class:`TreeState`: every clique/separator table
    is materialised as an ``(n, table_size)`` C-contiguous array whose rows
    are the per-case tables, and ``log_norm`` is an ``(n,)`` vector of the
    per-case accumulated normalisation constants.  Row *i* of every array is
    exactly the state that a per-case :class:`TreeState` would hold for case
    *i*, so batched engines can be validated row-by-row against the
    sequential ones.
    """

    __slots__ = ("tree", "n", "clique_pot", "sep_pot", "log_norm")

    def __init__(self, tree: JunctionTree, n: int,
                 base_cliques: list | None = None) -> None:
        if n < 1:
            raise JunctionTreeError(f"batch needs at least one case, got {n}")
        self.tree = tree
        self.n = n
        if base_cliques is None:
            base_cliques = [p.values for p in TreeState(tree).clique_pot]
        self.clique_pot: list = [
            np.broadcast_to(v, (n, v.size)).copy()  # always a writable C copy
            for v in base_cliques
        ]
        self.sep_pot: list = [np.ones((n, s.size)) for s in tree.separators]
        self.log_norm = np.zeros(n)

    def case_state(self, i: int) -> TreeState:
        """A per-case :class:`TreeState` view of row ``i`` (shares memory)."""
        if not 0 <= i < self.n:
            raise JunctionTreeError(f"case {i} out of range (batch of {self.n})")
        state = TreeState.__new__(TreeState)
        state.tree = self.tree
        state.clique_pot = [
            Potential(c.domain, self.clique_pot[c.id][i])
            for c in self.tree.cliques
        ]
        state.sep_pot = [
            Potential(s.domain, self.sep_pot[s.id][i])
            for s in self.tree.separators
        ]
        state.log_norm = float(self.log_norm[i])
        return state


def assign_cpts(tree: JunctionTree) -> None:
    """Assign every CPT to the smallest clique covering its family.

    Ties go to the lower clique id.  Only cliques holding the CPT's child
    can cover its family, so those are the candidates looked at.

    Guaranteed to succeed: each family is a clique of the moral graph, and
    every maximal clique of the triangulated graph covers some elimination
    clique containing it.
    """
    for k, cpt in enumerate(tree.net.cpts):
        covering = [tree.cliques[i]
                    for i in tree._var_to_cliques.get(cpt.child.name, ())
                    if all(v.name in tree.cliques[i].domain for v in cpt.parents)]
        if not covering:
            raise JunctionTreeError(
                f"no clique covers the family of {cpt.child.name!r} — "
                "triangulation is inconsistent with the moral graph"
            )
        min(covering, key=lambda c: (c.size, c.id)).cpt_indices.append(k)


#: The default ``heuristic``: triangulate under every candidate and keep
#: the cheapest cliques (see :func:`compile_cliques`).
DEFAULT_HEURISTIC = "cheapest"

#: The triangulations ``heuristic="cheapest"`` prices, in tie order.
CANDIDATES = ("min-fill", "min-weight", "min-degree")


class Triangulation(NamedTuple):
    """The maximal cliques of one triangulation and the heuristic that
    produced them."""

    heuristic: str
    cliques: list[frozenset[str]]


def compile_cliques(net: BayesianNetwork,
                    heuristic: str = DEFAULT_HEURISTIC) -> Triangulation:
    """Moralize → triangulate → maximal cliques: the structure a tree is
    built from (:func:`tree_from_cliques`) and priced by (the query
    planner), before any table exists.

    ``heuristic="cheapest"`` triangulates once under each of
    :data:`CANDIDATES` and keeps the cliques with the fewest table
    entries (:func:`~repro.graph.treewidth.total_clique_weight`); a tie
    goes to the earlier candidate.  Any other value forces that
    triangulation.
    """
    net.validate()
    cards = {v.name: v.cardinality for v in net.variables}
    moral = moralize(net)
    names = CANDIDATES if heuristic == "cheapest" else (heuristic,)
    found = [Triangulation(name, elimination_cliques(
                 triangulate(moral, heuristic=name, cardinalities=cards)
                 .elimination_cliques))
             for name in names]
    return min(found, key=lambda t: total_clique_weight(t.cliques, cards))


def tree_from_cliques(net: BayesianNetwork,
                      cliques: list[frozenset[str]],
                      heuristic: str | None = None) -> JunctionTree:
    """Spanning tree over ``cliques``, clique domains and CPT assignment.

    Clique domains order variables by network insertion order, so all
    potential layouts are deterministic.  ``heuristic`` names the
    triangulation the cliques came from (:attr:`JunctionTree.heuristic`).
    """
    skeleton = build_junction_tree(cliques)
    var_rank = {name: i for i, name in enumerate(net.variable_names)}

    def domain(members: frozenset[str]) -> Domain:
        ordered = sorted(members, key=lambda n: var_rank[n])
        return Domain(tuple(net.variable(n) for n in ordered))

    tree = JunctionTree(
        net,
        [Clique(i, domain(members)) for i, members in enumerate(skeleton.cliques)],
        [Separator(sep_id, a, b, domain(members))
         for sep_id, (a, b, members) in enumerate(skeleton.edges)],
        heuristic)
    assign_cpts(tree)
    return tree


def compile_junction_tree(
    net: BayesianNetwork,
    heuristic: str = DEFAULT_HEURISTIC,
) -> JunctionTree:
    """Full compile pipeline: moralize → triangulate → cliques → tree."""
    heuristic, cliques = compile_cliques(net, heuristic)
    return tree_from_cliques(net, cliques, heuristic)
