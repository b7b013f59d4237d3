"""Evidence absorption into a junction tree (the paper's *reduction* op).

Each observed variable is reduced in exactly one clique containing it (the
smallest, for the least work); running-intersection then propagates the
restriction everywhere during calibration.  Reduction keeps table shapes
fixed (zeroing mode), which is what lets the parallel engines precompute
index maps once per tree and reuse them across the 2000-case workload.
"""

from __future__ import annotations

from repro.errors import EvidenceError, NetworkError
from repro.jt.structure import JunctionTree, TreeState
from repro.potential.ops import reduce_evidence_inplace


def check_evidence(tree: JunctionTree, evidence: dict[str, str | int]) -> dict[str, int]:
    """Validate names/states and normalise values to state indices.

    An unknown variable or state raises :class:`EvidenceError` naming it.
    """
    out: dict[str, int] = {}
    for name, state in evidence.items():
        if name not in tree.net:
            raise EvidenceError(f"evidence variable {name!r} not in network")
        try:
            out[name] = tree.net.variable(name).state_index(state)
        except NetworkError as exc:  # names the variable and the state
            raise EvidenceError(str(exc)) from None
    return out


def evidence_delta(old: dict[str, int], new: dict[str, int]) -> tuple[
        tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """``(added, retracted, changed)`` variable names between two
    index-normalised evidence dicts (see :func:`check_evidence`)."""
    added = tuple(sorted(n for n in new if n not in old))
    retracted = tuple(sorted(n for n in old if n not in new))
    changed = tuple(sorted(n for n in new if n in old and new[n] != old[n]))
    return added, retracted, changed


def evidence_plan(tree: JunctionTree, evidence: dict[str, int]) -> dict[int, dict[str, int]]:
    """Group evidence by the clique chosen to absorb each variable."""
    plan: dict[int, dict[str, int]] = {}
    for name, state in evidence.items():
        cid = tree.smallest_clique_with(name)
        plan.setdefault(cid, {})[name] = state
    return plan


def absorb_evidence(state: TreeState, evidence: dict[str, str | int]) -> None:
    """Reduce the chosen clique tables in place (zeroing mode)."""
    ev = check_evidence(state.tree, evidence)
    for cid, ev_group in evidence_plan(state.tree, ev).items():
        reduce_evidence_inplace(state.clique_pot[cid], ev_group)
