"""UnBBayes-style sequential junction-tree engine (Table 1's seq baseline).

UnBBayes is a general-purpose Java BN library; its JT implementation walks
potential tables entry-by-entry with per-entry index arithmetic and no
vectorised kernels.  This re-implementation mirrors that style in pure
Python — tables are ``list[float]``, every table operation is an explicit
``for`` loop over entries, message passing is recursive DFS — so that the
Fast-BNI-seq vs UnBBayes comparison measures what the paper's does: the
value of the index-mapping formulation + tight kernels over a
straightforward general-purpose implementation.

The algorithm itself is the same exact Hugin propagation as every other
engine here (it must be: all engines agree to 1e-9 on every posterior).
"""

from __future__ import annotations

import math

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.errors import EvidenceError
from repro.jt.engine import InferenceResult
from repro.jt.structure import (DEFAULT_HEURISTIC, JunctionTree,
                                 compile_junction_tree)


class _Table:
    """A pure-Python potential table: variable names, cards, flat list."""

    __slots__ = ("names", "cards", "strides", "values")

    def __init__(self, names: list[str], cards: list[int]) -> None:
        self.names = names
        self.cards = cards
        self.strides = [1] * len(cards)
        for i in range(len(cards) - 2, -1, -1):
            self.strides[i] = self.strides[i + 1] * cards[i + 1]
        size = 1
        for c in cards:
            size *= c
        self.values = [1.0] * size

    def size(self) -> int:
        return len(self.values)

    def state_of(self, entry: int, axis: int) -> int:
        return (entry // self.strides[axis]) % self.cards[axis]


class UnBBayesEngine:
    """Sequential Hugin JT in deliberately plain Python (no NumPy kernels)."""

    name = "unbbayes"

    def __init__(self, net: BayesianNetwork, heuristic: str = DEFAULT_HEURISTIC) -> None:
        net.validate()
        self.net = net
        # Same compile pipeline (UnBBayes also builds a junction tree; the
        # paper's measurement is the inference pass).
        self.tree: JunctionTree = compile_junction_tree(net, heuristic=heuristic)
        # Pre-extract CPT contents into plain Python structures.
        self._clique_meta: list[_Table] = []
        self._base: list[list[float]] = []
        for clique in self.tree.cliques:
            t = _Table([v.name for v in clique.domain.variables],
                       [v.cardinality for v in clique.domain.variables])
            for k in clique.cpt_indices:
                cpt = self.tree.net.cpts[k]
                # positions of the CPT variables inside the clique
                axes = [t.names.index(v.name) for v in cpt.variables]
                flat = cpt.table.reshape(-1)
                cpt_strides = [1] * len(cpt.variables)
                for i in range(len(cpt.variables) - 2, -1, -1):
                    cpt_strides[i] = cpt_strides[i + 1] * cpt.variables[i + 1].cardinality
                for e in range(t.size()):
                    src = 0
                    for axis, stride in zip(axes, cpt_strides):
                        src += t.state_of(e, axis) * stride
                    t.values[e] *= float(flat[src])
            self._clique_meta.append(t)
            self._base.append(list(t.values))

    # ------------------------------------------------------------------ infer
    def infer(
        self,
        evidence: dict[str, str | int] | None = None,
        targets: tuple[str, ...] = (),
    ) -> InferenceResult:
        tree = self.tree
        cliques = [_copy_table(t, base) for t, base in zip(self._clique_meta, self._base)]
        seps: list[list[float] | None] = [None] * tree.num_separators
        log_norm = 0.0

        # Evidence: zero inconsistent entries of one clique per variable.
        if evidence:
            for name, state in evidence.items():
                if name not in self.net:
                    raise EvidenceError(f"evidence variable {name!r} not in network")
                var = self.net.variable(name)
                s = var.state_index(state)
                cid = tree.smallest_clique_with(name)
                t = cliques[cid]
                axis = t.names.index(name)
                for e in range(t.size()):
                    if t.state_of(e, axis) != s:
                        t.values[e] = 0.0

        # Recursive collect / distribute from the tree's current root.
        order = tree.bfs_order()
        for cid in reversed(order):
            par = tree.parent[cid]
            if par >= 0:
                log_norm += self._absorb(cliques, seps, src=cid, dst=par,
                                         sep_id=tree.parent_sep[cid])
        root_total = math.fsum(cliques[tree.root].values)
        if root_total <= 0.0:
            raise EvidenceError("evidence has zero probability")
        for cid in order:
            for child, sep_id in tree.children[cid]:
                self._absorb(cliques, seps, src=cid, dst=child, sep_id=sep_id)

        names = targets or self.net.variable_names
        posteriors: dict[str, np.ndarray] = {}
        for name in names:
            cid = tree.smallest_clique_with(name)
            t = cliques[cid]
            axis = t.names.index(name)
            acc = [0.0] * t.cards[axis]
            for e, v in enumerate(t.values):
                acc[t.state_of(e, axis)] += v
            total = math.fsum(acc)
            posteriors[name] = np.asarray([a / total for a in acc])
        return InferenceResult(
            posteriors=posteriors,
            log_evidence=log_norm + math.log(root_total),
        )

    # ---------------------------------------------------------------- message
    def _absorb(self, cliques: list[_Table], seps: list[list[float] | None],
                src: int, dst: int, sep_id: int) -> float:
        """Entry-loop Hugin message src → dst; returns log(message mass)."""
        tree = self.tree
        sep = tree.separators[sep_id]
        sep_names = [v.name for v in sep.domain.variables]
        sep_cards = [v.cardinality for v in sep.domain.variables]
        sep_strides = [1] * len(sep_cards)
        for i in range(len(sep_cards) - 2, -1, -1):
            sep_strides[i] = sep_strides[i + 1] * sep_cards[i + 1]
        sep_size = 1
        for c in sep_cards:
            sep_size *= c

        # marginalize src → new separator
        t_src = cliques[src]
        src_axes = [t_src.names.index(n) for n in sep_names]
        new_sep = [0.0] * sep_size
        for e, v in enumerate(t_src.values):
            m = 0
            for axis, stride in zip(src_axes, sep_strides):
                m += t_src.state_of(e, axis) * stride
            new_sep[m] += v
        total = math.fsum(new_sep)
        if total <= 0.0:
            raise EvidenceError("evidence has zero probability (empty message)")
        for m in range(sep_size):
            new_sep[m] /= total

        # ratio = new / old  (old is implicitly uniform 1 before first touch)
        old = seps[sep_id]
        ratio = [0.0] * sep_size
        for m in range(sep_size):
            o = 1.0 if old is None else old[m]
            ratio[m] = new_sep[m] / o if o != 0.0 else 0.0

        # extend-multiply into dst
        t_dst = cliques[dst]
        dst_axes = [t_dst.names.index(n) for n in sep_names]
        for e in range(t_dst.size()):
            m = 0
            for axis, stride in zip(dst_axes, sep_strides):
                m += t_dst.state_of(e, axis) * stride
            t_dst.values[e] *= ratio[m]
        seps[sep_id] = new_sep
        return math.log(total)


def _copy_table(meta: _Table, base: list[float]) -> _Table:
    t = _Table.__new__(_Table)
    t.names = meta.names
    t.cards = meta.cards
    t.strides = meta.strides
    t.values = list(base)
    return t
