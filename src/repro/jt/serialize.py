"""Persist a compiled junction tree to JSON and restore it.

The JSON form stores only structure (clique/separator scopes, edges, CPT
assignment, root) — potentials are always rebuilt from the network's
CPTs, so a stale file cannot silently carry old parameters.  The service
does not cache trees (a compile is cheap); it uses :func:`tree_to_dict`
as the structure part of a model file's digest.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bn.network import BayesianNetwork
from repro.errors import JunctionTreeError
from repro.jt.structure import Clique, JunctionTree, Separator
from repro.potential.domain import Domain

FORMAT_VERSION = 1


def tree_to_dict(tree: JunctionTree) -> dict:
    """Structure-only dictionary form of a compiled tree."""
    return {
        "version": FORMAT_VERSION,
        "network": tree.net.name,
        "num_variables": tree.net.num_variables,
        "cliques": [
            {"id": c.id, "variables": list(c.domain.names), "cpts": list(c.cpt_indices)}
            for c in tree.cliques
        ],
        "separators": [
            {"id": s.id, "a": s.a, "b": s.b, "variables": list(s.domain.names)}
            for s in tree.separators
        ],
        "root": tree.root,
    }


def tree_from_dict(data: dict, net: BayesianNetwork) -> JunctionTree:
    """Rebuild a compiled tree against ``net`` (validates compatibility)."""
    if data.get("version") != FORMAT_VERSION:
        raise JunctionTreeError(
            f"unsupported junction-tree format version {data.get('version')!r}"
        )
    if data.get("num_variables") != net.num_variables:
        raise JunctionTreeError(
            "serialized tree does not match the network "
            f"({data.get('num_variables')} vs {net.num_variables} variables)"
        )
    try:
        cliques = [
            Clique(c["id"], Domain(tuple(net.variable(n) for n in c["variables"])),
                   list(c["cpts"]))
            for c in data["cliques"]
        ]
        separators = [
            Separator(s["id"], s["a"], s["b"],
                      Domain(tuple(net.variable(n) for n in s["variables"])))
            for s in data["separators"]
        ]
    except KeyError as exc:
        raise JunctionTreeError(f"malformed junction-tree data: missing {exc}") from None
    # Validate CPT assignment covers every CPT exactly once.
    assigned = sorted(k for c in cliques for k in c.cpt_indices)
    if assigned != list(range(len(net.cpts))):
        raise JunctionTreeError(
            "serialized CPT assignment does not match the network's CPTs"
        )
    for clique in cliques:
        names = set(clique.domain.names)
        for k in clique.cpt_indices:
            fam = {v.name for v in net.cpts[k].variables}
            if not fam <= names:
                raise JunctionTreeError(
                    f"clique {clique.id} does not cover the family of CPT {k}"
                )
    tree = JunctionTree(net, cliques, separators)
    tree.set_root(int(data.get("root", 0)))
    return tree


def save_tree(tree: JunctionTree, path: str | Path) -> None:
    """Write a compiled tree's structure to a JSON file."""
    Path(path).write_text(json.dumps(tree_to_dict(tree)))


def load_tree(path: str | Path, net: BayesianNetwork) -> JunctionTree:
    """Load a compiled tree from JSON and bind it to ``net``."""
    return tree_from_dict(json.loads(Path(path).read_text()), net)
