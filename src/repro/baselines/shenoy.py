"""Shenoy–Shafer architecture: division-free junction-tree propagation.

The alternative message-passing architecture to Hugin's: separators store
*two directed messages* instead of one table, and a clique's belief is its
initial potential times all incoming messages — no division anywhere.
Hugin trades the division for smaller working sets; Shenoy–Shafer trades
memory for divisions and is numerically cleaner around zeros.

Included as an architectural cross-check: it shares no update formulas
with the Hugin-style engines, so agreement on posteriors is strong
evidence for both (and it exercises the potential algebra differently).
"""

from __future__ import annotations

import math

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.errors import EvidenceError
from repro.jt.engine import InferenceResult
from repro.jt.evidence import absorb_evidence
from repro.jt.root import select_root
from repro.jt.structure import DEFAULT_HEURISTIC, compile_junction_tree
from repro.potential.factor import Potential
from repro.potential.ops import marginalize, multiply_into


class ShenoyShaferEngine:
    """Division-free two-message junction-tree engine."""

    name = "shenoy-shafer"

    def __init__(self, net: BayesianNetwork, heuristic: str = DEFAULT_HEURISTIC) -> None:
        self.net = net
        self.tree = compile_junction_tree(net, heuristic=heuristic)
        select_root(self.tree, "center")

    def infer(
        self,
        evidence: dict[str, str | int] | None = None,
        targets: tuple[str, ...] = (),
    ) -> InferenceResult:
        tree = self.tree
        state = tree.fresh_state()
        if evidence:
            absorb_evidence(state, evidence)
        psi = state.clique_pot  # initial potentials (never mutated below)

        order = tree.bfs_order()
        up: dict[int, Potential] = {}    # message child -> parent
        down: dict[int, Potential] = {}  # message parent -> child
        log_scale = 0.0

        # Collect: leaves to root.  m_up(c) = marg(psi_c × prod m_up(kids), sep)
        for cid in reversed(order):
            parent = tree.parent[cid]
            if parent < 0:
                continue
            work = psi[cid].copy()
            for child, _sep in tree.children[cid]:
                multiply_into(work, up[child])
            sep = tree.separators[tree.parent_sep[cid]]
            msg = marginalize(work, sep.domain.names)
            total = float(msg.values.sum())
            if total <= 0.0:
                raise EvidenceError("evidence has zero probability (empty message)")
            msg.values /= total
            log_scale += math.log(total)
            up[cid] = msg

        # Root belief and P(e).
        root_belief = psi[tree.root].copy()
        for child, _sep in tree.children[tree.root]:
            multiply_into(root_belief, up[child])
        root_total = float(root_belief.values.sum())
        if root_total <= 0.0:
            raise EvidenceError("evidence has zero probability")
        log_p = log_scale + math.log(root_total)

        # Distribute: root to leaves.
        # m_down(c) = marg(psi_p × prod m_up(siblings) × m_down(p), sep)
        for cid in order:
            for child, sep_id in tree.children[cid]:
                work = psi[cid].copy()
                if tree.parent[cid] >= 0:
                    multiply_into(work, down[cid])
                for other, _s in tree.children[cid]:
                    if other != child:
                        multiply_into(work, up[other])
                sep = tree.separators[sep_id]
                msg = marginalize(work, sep.domain.names)
                total = float(msg.values.sum())
                if total > 0.0:
                    msg.values /= total
                down[child] = msg

        # Beliefs on demand per queried variable.
        names = targets or self.net.variable_names
        posteriors: dict[str, np.ndarray] = {}
        belief_cache: dict[int, Potential] = {tree.root: root_belief}
        for name in names:
            cid = tree.smallest_clique_with(name)
            if cid not in belief_cache:
                belief = psi[cid].copy()
                if tree.parent[cid] >= 0:
                    multiply_into(belief, down[cid])
                for child, _sep in tree.children[cid]:
                    multiply_into(belief, up[child])
                belief_cache[cid] = belief
            marg = marginalize(belief_cache[cid], (name,))
            total = float(marg.values.sum())
            posteriors[name] = marg.values / total
        return InferenceResult(posteriors=posteriors, log_evidence=log_p)
