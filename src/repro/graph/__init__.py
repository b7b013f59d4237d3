"""Graph algorithms used to compile a Bayesian network into a junction tree.

The compilation pipeline (classic Lauritzen–Spiegelhalter):

1. :func:`repro.graph.moralize.moralize` — undirected moral graph;
2. :func:`repro.graph.triangulate.triangulate` — chordal completion via a
   greedy elimination heuristic (min-fill / min-degree / min-weight);
3. :func:`repro.graph.cliques.elimination_cliques` — maximal cliques;
4. :func:`repro.graph.junction.build_junction_tree` — maximum-weight
   spanning tree over the clique graph, satisfying the running-intersection
   property.

All algorithms work on plain ``dict[str, set[str]]`` adjacency maps and are
implemented from scratch (networkx is only used by the test-suite as an
independent cross-check).
"""

from repro.graph.cliques import elimination_cliques, is_clique, maximal_cliques_check
from repro.graph.junction import JunctionTreeSkeleton, build_junction_tree
from repro.graph.moralize import moral_graph, moralize
from repro.graph.triangulate import (
    EliminationResult,
    is_chordal,
    triangulate,
)
from repro.graph.treewidth import ordering_width

__all__ = [
    "moralize",
    "moral_graph",
    "triangulate",
    "EliminationResult",
    "is_chordal",
    "elimination_cliques",
    "is_clique",
    "maximal_cliques_check",
    "build_junction_tree",
    "JunctionTreeSkeleton",
    "ordering_width",
]
