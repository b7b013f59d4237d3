"""Most-probable-explanation (MPE) queries via max-product propagation.

A single upward (collect) pass with max-marginalization messages computes
``max_x P(x, e)`` at the root; a downward backtrace then decodes the
argmax assignment clique by clique: fix the root clique's argmax, and for
each child pick the entry that achieved the separator maximum under the
parent's chosen separator states.

This is the classic Dawid (1992) max-propagation — the standard companion
query of a junction-tree engine, built entirely on the library's existing
structures (an "optional feature" extension beyond the poster's scope).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EvidenceError
from repro.jt.evidence import absorb_evidence
from repro.jt.structure import (DEFAULT_HEURISTIC, JunctionTree,
                                 compile_junction_tree)
from repro.potential.factor import Potential
from repro.potential.maxops import max_marginalize_argmax_vec, restrict
from repro.potential.ops import multiply_into


def most_probable_explanation(
    tree: JunctionTree,
    evidence: dict[str, str | int] | None = None,
) -> tuple[dict[str, int], float]:
    """Return ``(assignment, log probability)`` of the MPE given evidence.

    The assignment covers every network variable (state indices) and is
    consistent with the evidence; the log probability is
    ``log max_x P(x, e)`` — exactly the joint probability of the returned
    assignment.
    """
    state = tree.fresh_state()
    if evidence:
        absorb_evidence(state, evidence)

    order = tree.bfs_order()
    # Upward pass: psi_c absorbs max-messages from children, then sends
    # its own max-projection up.  Scaled like sum-propagation to avoid
    # underflow; constants accumulate in log_scale.
    messages: dict[int, Potential] = {}
    argmaxes: dict[int, np.ndarray] = {}
    log_scale = 0.0
    for cid in reversed(order):
        psi = state.clique_pot[cid]
        for child, _sep in tree.children[cid]:
            multiply_into(psi, messages[child])
        parent = tree.parent[cid]
        if parent < 0:
            continue
        sep = tree.separators[tree.parent_sep[cid]]
        msg, arg = max_marginalize_argmax_vec(psi, sep.domain.names)
        peak = float(msg.values.max())
        if peak <= 0.0:
            raise EvidenceError("evidence has zero probability (empty max-message)")
        msg.values /= peak
        log_scale += math.log(peak)
        messages[cid] = msg
        argmaxes[cid] = arg

    # Root decision.
    root_pot = state.clique_pot[tree.root]
    best_flat = int(np.argmax(root_pot.values))
    best_val = float(root_pot.values[best_flat])
    if best_val <= 0.0:
        raise EvidenceError("evidence has zero probability")
    assignment: dict[str, int] = dict(root_pot.domain.unflatten(best_flat))

    # Downward backtrace: per child, the separator assignment is already
    # fixed; the stored argmax gives the maximising clique entry.
    for cid in order:
        for child, sep_id in tree.children[cid]:
            sep = tree.separators[sep_id]
            sep_assign = {n: assignment[n] for n in sep.domain.names}
            sep_flat = sep.domain.flat_index(sep_assign)
            child_flat = int(argmaxes[child][sep_flat])
            child_assign = state.clique_pot[child].domain.unflatten(child_flat)
            for name, s in child_assign.items():
                if name in assignment:
                    # RIP guarantees consistency on shared variables.
                    assert assignment[name] == s
                else:
                    assignment[name] = s

    log_p = log_scale + math.log(best_val)
    return assignment, log_p


def mpe_bruteforce(net, evidence: dict[str, str | int] | None = None
                   ) -> tuple[dict[str, int], float]:
    """Exhaustive MPE oracle for tiny networks (tests only)."""
    evidence = {
        name: net.variable(name).state_index(s)
        for name, s in (evidence or {}).items()
    }
    from repro.potential.domain import Domain

    dom = Domain(net.variables)
    best, best_lp = None, -math.inf
    for assign in dom.assignments():
        if any(assign[n] != s for n, s in evidence.items()):
            continue
        lp = net.log_joint(assign)
        if lp > best_lp:
            best, best_lp = dict(assign), lp
    if best is None or not math.isfinite(best_lp):
        raise EvidenceError("evidence has zero probability")
    return best, best_lp


class MPEEngine:
    """Engine-style wrapper: compile once, answer MPE queries many times."""

    name = "mpe"

    def __init__(self, net, heuristic: str = DEFAULT_HEURISTIC) -> None:
        from repro.jt.root import select_root

        self.net = net
        self.tree = compile_junction_tree(net, heuristic=heuristic)
        select_root(self.tree, "center")

    def query(self, evidence: dict[str, str | int] | None = None
              ) -> tuple[dict[str, int], float]:
        return most_probable_explanation(self.tree, evidence)
