"""Tests for junction-tree compilation and the shared tree structure."""

import numpy as np
import pytest

from repro.bn.generators import chain_network, random_network, star_network
from repro.errors import JunctionTreeError
from repro.jt.structure import compile_junction_tree
from repro.potential.ops import multiply


class TestCompile:
    def test_asia_compiles(self, asia):
        tree = compile_junction_tree(asia)
        assert tree.num_separators == tree.num_cliques - 1
        assert tree.net is asia

    def test_every_cpt_assigned_exactly_once(self, asia):
        tree = compile_junction_tree(asia)
        assigned = [k for c in tree.cliques for k in c.cpt_indices]
        assert sorted(assigned) == list(range(len(asia.cpts)))

    def test_cpt_family_covered_by_host_clique(self, asia):
        tree = compile_junction_tree(asia)
        for clique in tree.cliques:
            names = set(clique.domain.names)
            for k in clique.cpt_indices:
                fam = {v.name for v in asia.cpts[k].variables}
                assert fam <= names

    @pytest.mark.parametrize("heuristic", ["min-fill", "min-degree", "min-weight"])
    def test_all_heuristics_work(self, asia, heuristic):
        tree = compile_junction_tree(asia, heuristic=heuristic)
        assert tree.num_cliques >= 1

    def test_var_to_clique_lookup(self, asia):
        tree = compile_junction_tree(asia)
        for v in asia.variable_names:
            for cid in tree.cliques_with(v):
                assert v in tree.cliques[cid].domain
            smallest = tree.smallest_clique_with(v)
            assert v in tree.cliques[smallest].domain

    def test_unknown_variable_lookup(self, asia):
        tree = compile_junction_tree(asia)
        with pytest.raises(JunctionTreeError):
            tree.cliques_with("zz")


class TestRooting:
    def test_set_root_rebuilds_topology(self, asia):
        tree = compile_junction_tree(asia)
        for root in range(tree.num_cliques):
            tree.set_root(root)
            assert tree.parent[root] == -1
            assert tree.depth[root] == 0
            for cid in range(tree.num_cliques):
                if cid != root:
                    assert tree.depth[cid] == tree.depth[tree.parent[cid]] + 1

    def test_bfs_order_parents_first(self, asia):
        tree = compile_junction_tree(asia)
        tree.set_root(2 % tree.num_cliques)
        order = tree.bfs_order()
        pos = {c: i for i, c in enumerate(order)}
        for cid in range(tree.num_cliques):
            if tree.parent[cid] >= 0:
                assert pos[tree.parent[cid]] < pos[cid]

    def test_invalid_root(self, asia):
        tree = compile_junction_tree(asia)
        with pytest.raises(JunctionTreeError):
            tree.set_root(999)

    def test_children_consistent_with_parent(self, asia):
        tree = compile_junction_tree(asia)
        tree.set_root(0)
        for cid, kids in enumerate(tree.children):
            for child, sep in kids:
                assert tree.parent[child] == cid
                assert tree.parent_sep[child] == sep


class TestTreeState:
    def test_initial_product_equals_joint(self, sprinkler):
        """Product of all initial clique potentials == the full joint."""
        tree = compile_junction_tree(sprinkler)
        state = tree.fresh_state()
        total = state.clique_pot[0]
        for pot in state.clique_pot[1:]:
            total = multiply(total, pot)
        for assign in total.domain.assignments():
            expected = sprinkler.joint_probability(
                {n: s for n, s in assign.items()})
            assert total.value(assign) == pytest.approx(expected)

    def test_fresh_state_independent(self, asia):
        tree = compile_junction_tree(asia)
        s1, s2 = tree.fresh_state(), tree.fresh_state()
        s1.clique_pot[0].values[:] = 0
        assert not np.allclose(s2.clique_pot[0].values, 0)

    def test_stats_keys(self, asia):
        tree = compile_junction_tree(asia)
        stats = tree.stats()
        for key in ("num_cliques", "max_clique_size", "height"):
            assert key in stats


class TestStructureShapes:
    def test_chain_tree_is_path(self):
        net = chain_network(12, rng=0)
        tree = compile_junction_tree(net)
        degree = [len(n) for n in tree.nbrs]
        assert max(degree) <= 2
        assert tree.num_cliques == 11

    def test_star_tree_is_shallow(self):
        net = star_network(15, rng=0)
        tree = compile_junction_tree(net)
        tree.set_root(0)
        assert tree.height() <= 2

    @pytest.mark.parametrize("seed", range(3))
    def test_random_networks_compile(self, seed):
        net = random_network(40, avg_parents=1.6, max_in_degree=3, window=8, rng=seed)
        tree = compile_junction_tree(net)
        assert tree.num_cliques >= 1


ANALOGS = ("hailfinder", "pathfinder", "diabetes", "pigs", "munin2",
           "munin4")


class TestCheapestTriangulation:
    """The default tree is the cheapest of the candidate triangulations."""

    @pytest.mark.parametrize("name", ANALOGS)
    def test_chosen_price_is_the_least(self, name):
        from repro.bn.repository import resolve_network
        from repro.graph.treewidth import total_clique_weight
        from repro.jt.structure import CANDIDATES, compile_cliques

        net = resolve_network(name)
        cards = {v.name: v.cardinality for v in net.variables}
        prices = {h: total_clique_weight(compile_cliques(net, h).cliques,
                                         cards)
                  for h in CANDIDATES}
        chosen = compile_cliques(net)
        assert total_clique_weight(chosen.cliques, cards) == min(
            prices.values())
        # A tie goes to the earliest candidate.
        assert chosen.heuristic == next(
            h for h in CANDIDATES if prices[h] == min(prices.values()))
        assert (set(chosen.cliques)
                == set(compile_cliques(net, chosen.heuristic).cliques))

    def test_ties_keep_min_fill(self, asia):
        """Asia's candidates all price 40 entries: min-fill wins."""
        from repro.jt.structure import compile_cliques

        assert compile_cliques(asia).heuristic == "min-fill"
        assert compile_junction_tree(asia).heuristic == "min-fill"

    def test_hailfinder_takes_min_weight(self):
        from repro.bn.repository import resolve_network

        tree = compile_junction_tree(resolve_network("hailfinder"))
        assert tree.heuristic == "min-weight"
        assert tree.stats()["total_clique_size"] == 3348
        assert tree.num_cliques == 47

    def test_explicit_heuristic_forces_its_triangulation(self):
        from repro.bn.repository import resolve_network

        tree = compile_junction_tree(resolve_network("hailfinder"),
                                     heuristic="min-fill")
        assert tree.heuristic == "min-fill"
        assert tree.stats()["total_clique_size"] == 5025

    def test_unknown_heuristic_keeps_its_text(self, asia):
        with pytest.raises(JunctionTreeError,
                           match=r"^unknown heuristic 'bogus'; expected one of "
                                 r"\('min-fill', 'min-degree', 'min-weight'\)$"):
            compile_junction_tree(asia, heuristic="bogus")

    @pytest.mark.parametrize("name", ["hailfinder", "diabetes"])
    def test_tree_is_independent_of_the_hash_seed(self, name):
        """String hashing changes set order, never the tree."""
        import os
        import subprocess
        import sys

        script = ("import json, sys\n"
                  "from repro.bn.repository import resolve_network\n"
                  "from repro.jt.serialize import tree_to_dict\n"
                  "from repro.jt.structure import compile_junction_tree\n"
                  "tree = compile_junction_tree(resolve_network(sys.argv[1]))\n"
                  "print(tree.heuristic, json.dumps(tree_to_dict(tree), "
                  "sort_keys=True))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        outputs = set()
        for seed in ("0", "7", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run([sys.executable, "-c", script, name],
                                  env=env, capture_output=True, text=True,
                                  check=True)
            outputs.add(done.stdout)
        assert len(outputs) == 1

    def test_cheapest_and_min_fill_trees_agree(self):
        """Hailfinder answers the same on its cheapest and min-fill trees,
        one case at a time and in a batch of table-major blocks."""
        from repro.bn.repository import resolve_network
        from repro.bn.sampling import generate_test_cases
        from repro.core import BatchedFastBNI
        from repro.exec.native import load_native_kernels

        net = resolve_network("hailfinder")
        cases = [c.evidence for c in generate_test_cases(net, 40, 0.2, rng=8)]
        kernels = ["fused"] + (["native"] if load_native_kernels()[0]
                               else [])
        for kind in kernels:
            with BatchedFastBNI(net, mode="seq", kernels=kind) as cheapest, \
                    BatchedFastBNI(net, mode="seq", kernels=kind,
                                   heuristic="min-fill") as fill:
                assert cheapest.tree.heuristic == "min-weight"
                assert cheapest.tree.num_cliques != fill.tree.num_cliques
                for case in cases[:8]:
                    got, want = cheapest.infer(case), fill.infer(case)
                    assert got.log_evidence == pytest.approx(
                        want.log_evidence, abs=1e-12)
                    for name in net.variable_names:
                        np.testing.assert_allclose(
                            got.posteriors[name], want.posteriors[name],
                            rtol=0, atol=1e-12)
                got, want = cheapest.infer_cases(cases), fill.infer_cases(cases)
                np.testing.assert_allclose(got.log_evidence,
                                           want.log_evidence,
                                           rtol=0, atol=1e-12)
                for name in net.variable_names:
                    np.testing.assert_allclose(
                        got.posteriors[name], want.posteriors[name],
                        rtol=0, atol=1e-12)
