"""Tests for moralization, triangulation, cliques and treewidth.

networkx is used here (and only here) as an independent cross-check for
chordality and maximal cliques.
"""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.approx.planner import QueryPlanner
from repro.bn.datasets import load_dataset
from repro.bn.generators import (chain_network, grid_network, random_network,
                                 star_network)
from repro.errors import JunctionTreeError
from repro.graph.cliques import elimination_cliques, is_clique, maximal_cliques_check
from repro.graph.moralize import check_symmetric, copy_adjacency, moralize
from repro.graph.treewidth import (log_max_clique_weight, ordering_width,
                                   total_clique_weight)
from repro.graph.triangulate import HEURISTICS, is_chordal, triangulate
from repro.jt.structure import compile_junction_tree
from tests.triangulate_oracle import scan_order


class TestMoralize:
    def test_asia_moral_edges(self, asia):
        adj = moralize(asia)
        # Parents of 'either' (lung, tub) must be married.
        assert "tub" in adj["lung"]
        # Parents of 'dysp' (bronc, either) must be married.
        assert "either" in adj["bronc"]
        assert check_symmetric(adj)

    def test_every_family_is_clique(self, asia):
        adj = moralize(asia)
        for cpt in asia.cpts:
            fam = frozenset(v.name for v in cpt.variables)
            assert is_clique(adj, fam)

    def test_chain_moral_graph_is_path(self):
        net = chain_network(5, rng=0)
        adj = moralize(net)
        degrees = sorted(len(nbrs) for nbrs in adj.values())
        assert degrees == [1, 1, 2, 2, 2]

    def test_copy_adjacency_independent(self, asia):
        adj = moralize(asia)
        cp = copy_adjacency(adj)
        cp["smoke"].add("xray")
        assert "xray" not in adj["smoke"]


class TestTriangulate:
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_result_is_chordal(self, asia, heuristic):
        adj = moralize(asia)
        cards = {v.name: v.cardinality for v in asia.variables}
        res = triangulate(adj, heuristic, cards)
        assert is_chordal(res.adjacency)
        g = nx.Graph({u: set(nbrs) for u, nbrs in res.adjacency.items()})
        assert nx.is_chordal(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_networks_chordal(self, seed):
        net = random_network(25, state_dist=2, avg_parents=1.8, max_in_degree=4,
                             window=8, rng=seed)
        res = triangulate(moralize(net))
        g = nx.Graph({u: set(nbrs) for u, nbrs in res.adjacency.items()})
        assert nx.is_chordal(g)

    def test_order_covers_all_nodes(self, asia):
        res = triangulate(moralize(asia))
        assert sorted(res.order) == sorted(asia.variable_names)

    def test_fill_edges_not_in_original(self, asia):
        adj = moralize(asia)
        res = triangulate(adj)
        for u, w in res.fill_edges:
            assert w not in adj[u]

    def test_already_chordal_no_fill(self):
        net = chain_network(6, rng=0)
        res = triangulate(moralize(net))
        assert res.fill_edges == ()

    def test_min_weight_needs_cards(self, asia):
        with pytest.raises(JunctionTreeError):
            triangulate(moralize(asia), "min-weight")

    def test_unknown_heuristic(self, asia):
        with pytest.raises(JunctionTreeError):
            triangulate(moralize(asia), "max-fun")

    def test_deterministic(self, asia):
        r1 = triangulate(moralize(asia))
        r2 = triangulate(moralize(asia))
        assert r1.order == r2.order
        assert r1.fill_edges == r2.fill_edges

    def test_is_chordal_detects_hole(self):
        cycle4 = {"a": {"b", "d"}, "b": {"a", "c"}, "c": {"b", "d"}, "d": {"c", "a"}}
        assert not is_chordal(cycle4)
        cycle4["a"].add("c")
        cycle4["c"].add("a")
        assert is_chordal(cycle4)


class TestCliques:
    def test_matches_networkx_maximal_cliques(self, asia):
        res = triangulate(moralize(asia))
        ours = set(elimination_cliques(res.elimination_cliques))
        g = nx.Graph({u: set(nbrs) for u, nbrs in res.adjacency.items()})
        theirs = {frozenset(c) for c in nx.find_cliques(g)}
        assert ours == theirs

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_networkx_on_random(self, seed):
        net = random_network(20, avg_parents=1.6, max_in_degree=3, window=6, rng=seed)
        res = triangulate(moralize(net))
        ours = set(elimination_cliques(res.elimination_cliques))
        g = nx.Graph({u: set(nbrs) for u, nbrs in res.adjacency.items()})
        theirs = {frozenset(c) for c in nx.find_cliques(g)}
        assert ours == theirs

    def test_no_clique_contains_another(self, asia):
        res = triangulate(moralize(asia))
        cl = elimination_cliques(res.elimination_cliques)
        assert maximal_cliques_check(res.adjacency, cl)

    def test_star_single_hub_cliques(self):
        net = star_network(6, rng=0)
        res = triangulate(moralize(net))
        cl = elimination_cliques(res.elimination_cliques)
        assert all(len(c) == 2 for c in cl)
        assert len(cl) == 6


class TestTreewidth:
    def test_chain_width_one(self):
        net = chain_network(8, rng=0)
        adj = moralize(net)
        res = triangulate(adj)
        assert ordering_width(adj, res.order) == 1

    def test_width_bounds_clique_size(self, asia):
        adj = moralize(asia)
        res = triangulate(adj)
        width = ordering_width(adj, res.order)
        cl = elimination_cliques(res.elimination_cliques)
        assert max(len(c) for c in cl) == width + 1

    def test_total_clique_weight(self):
        cl = [frozenset(["a", "b"]), frozenset(["b", "c"])]
        cards = {"a": 2, "b": 3, "c": 4}
        assert total_clique_weight(cl, cards) == 6 + 12

    def test_log_max_clique_weight(self):
        cl = [frozenset(["a", "b"]), frozenset(["c"])]
        cards = {"a": 10, "b": 10, "c": 10}
        assert log_max_clique_weight(cl, cards) == pytest.approx(2.0)


class TestFillInCost:
    """Pinned widths/bytes of the bundled networks' compiled cliques.

    These are the numbers the exact/approx query planner prices compiles
    with (the maximal cliques of the min-fill triangulation, the tree's
    own tables), so a silent change in the triangulation must fail here.
    """

    def _cost(self, net):
        return QueryPlanner().plan(net).estimate

    def test_asia_pinned(self, asia):
        cost = self._cost(asia)
        assert cost.width == 2
        assert cost.max_clique_entries == 8
        assert cost.total_table_bytes == 320

    def test_cancer_pinned(self, cancer):
        cost = self._cost(cancer)
        assert cost.width == 2
        assert cost.total_table_bytes == 128

    def test_sprinkler_pinned(self, sprinkler):
        cost = self._cost(sprinkler)
        assert cost.width == 2
        assert cost.total_table_bytes == 128

    def test_bytes_are_eight_per_entry(self, asia):
        cost = self._cost(asia)
        stats = compile_junction_tree(asia).stats()
        assert cost.total_table_bytes == 8 * stats["total_clique_size"]
        assert cost.log10_max_clique == pytest.approx(
            np.log10(cost.max_clique_entries))

    def test_grid_width_grows(self):
        small = grid_network(3, 3, rng=0)
        large = grid_network(6, 6, rng=0)
        cost_small = self._cost(small)
        cost_large = self._cost(large)
        assert cost_large.width > cost_small.width
        assert cost_large.total_table_bytes > cost_small.total_table_bytes


@st.composite
def _graphs(draw):
    """A random graph of drawn size and density (insertion order shuffled,
    so rank ties and names disagree) with a state count per vertex."""
    n = draw(st.integers(1, 30))
    density = draw(st.floats(0.05, 0.6))
    rng = draw(st.randoms(use_true_random=False))
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    adjacency = {v: set() for v in names}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if rng.random() < density:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return adjacency, {v: rng.randint(1, 6) for v in names}


class TestIncrementalOrder:
    """The incremental loop re-scores only what an elimination changes;
    its order must be the full re-scan's, vertex for vertex."""

    @settings(max_examples=150, deadline=None)
    @given(graph=_graphs(), heuristic=st.sampled_from(HEURISTICS))
    def test_matches_the_rescan_on_random_graphs(self, graph, heuristic):
        adjacency, cards = graph
        assert (triangulate(adjacency, heuristic, cards).order
                == scan_order(adjacency, heuristic, cards))

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    @pytest.mark.parametrize("name", ["asia", "cancer", "sprinkler", "grid",
                                      "chain", "random"])
    def test_matches_the_rescan_on_networks(self, name, heuristic):
        net = {"grid": lambda: grid_network(7, 7, rng=3),
               "chain": lambda: chain_network(40, rng=0),
               "random": lambda: random_network(60, state_dist=3,
                                                avg_parents=2.0,
                                                max_in_degree=4, rng=1),
               }.get(name, lambda: load_dataset(name))()
        adjacency = moralize(net)
        cards = {v.name: v.cardinality for v in net.variables}
        assert (triangulate(adjacency, heuristic, cards).order
                == scan_order(adjacency, heuristic, cards))


#: Prints a min-weight elimination order of diabetes (bench scale).
_MIN_WEIGHT_ORDER = """
from repro import load_network
from repro.graph.moralize import moralize
from repro.graph.triangulate import triangulate
net = load_network("diabetes")
cards = {v.name: v.cardinality for v in net.variables}
print(" ".join(triangulate(moralize(net), "min-weight", cards).order))
"""


class TestMinWeightDeterminism:
    def test_order_does_not_depend_on_the_hash_seed(self):
        """Min-weight scores are exact integer products, so equal products
        tie on rank whatever order a neighbour set iterates in: processes
        with different string hash seeds eliminate in the same order."""
        src = str(Path(repro.__file__).resolve().parents[1])
        orders = []
        for seed in ("0", "7"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            run = subprocess.run([sys.executable, "-c", _MIN_WEIGHT_ORDER],
                                 env=env, capture_output=True, text=True,
                                 timeout=120, check=True)
            orders.append(run.stdout.split())
        assert len(orders[0]) == 413
        assert orders[0] == orders[1]
