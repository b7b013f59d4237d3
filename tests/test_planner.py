"""Tests for the exact/approx query planner (repro.approx.planner)."""

from __future__ import annotations

import pytest

from repro.approx import QueryPlanner
from repro.bn.cpt import CPT
from repro.bn.generators import chain_network, grid_network
from repro.bn.network import BayesianNetwork
from repro.bn.variable import Variable
from repro.errors import PlannerError
from repro.graph.triangulate import HEURISTICS
from repro.jt.structure import compile_cliques, compile_junction_tree
from repro.potential.domain import Domain


def married_roots(roots: int = 16, card: int = 16) -> BayesianNetwork:
    """``roots`` root variables, every pair married by a binary child.

    Every CPT is tiny, but the roots form one clique of ``card ** roots``
    entries (2^64 by default): past what any table can hold.
    """
    net = BayesianNetwork("married-roots")
    top = [net.add_variable(Variable.with_arity(f"r{i:02d}", card))
           for i in range(roots)]
    for r in top:
        net.add_cpt(CPT.uniform(r))
    for i, a in enumerate(top):
        for b in top[i + 1:]:
            child = net.add_variable(Variable.with_arity(f"{a.name}{b.name}", 2))
            net.add_cpt(CPT.uniform(child, (a, b)))
    return net


class TestEstimate:
    def test_estimate_matches_fill_in(self, asia):
        cost = QueryPlanner().plan(asia).estimate
        assert cost.width == 2
        assert cost.total_table_bytes == 320

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_estimate_prices_compiled_tree(self, asia, heuristic):
        """The price is the tree the engine builds from the same cliques:
        its tables, entry for entry."""
        tree = compile_junction_tree(asia, heuristic=heuristic)
        cost = QueryPlanner().plan(
            asia, cliques=compile_cliques(asia, heuristic).cliques).estimate
        assert cost.total_table_bytes == 8 * tree.stats()["total_clique_size"]
        assert cost.max_clique_entries == tree.stats()["max_clique_size"]

    def test_estimate_without_compiling(self, monkeypatch):
        """A 12-wide binary grid is priced without building a table (or
        the domain of one)."""
        net = grid_network(12, 12, rng=0)
        with monkeypatch.context() as patch:
            def no_tables(self):
                raise AssertionError("the planner built a domain")

            patch.setattr(Domain, "__post_init__", no_tables)
            cost = QueryPlanner().plan(net).estimate
        assert cost.width >= 12
        tree = compile_junction_tree(net)
        assert cost.total_table_bytes == 8 * tree.stats()["total_clique_size"]

    def test_clique_past_the_table_bound_is_routed_not_built(self):
        """A clique of 2^64 entries is priced in Python ints: ``auto``
        samples, ``exact`` refuses — no table is ever attempted."""
        net = married_roots()
        cost = QueryPlanner().plan(net).estimate
        assert cost.max_clique_entries == 2 ** 64
        assert QueryPlanner().plan(net).engine == "approx"
        with pytest.raises(PlannerError, match="refusing exact compilation"):
            QueryPlanner(policy="exact").plan(net)


class TestRouting:
    def test_auto_routes_small_to_exact(self, asia):
        decision = QueryPlanner().plan(asia)
        assert decision.engine == "exact"
        assert "affordable" in decision.reason

    def test_auto_routes_high_treewidth_to_approx(self):
        net = grid_network(6, 6, rng=1)
        planner = QueryPlanner(max_exact_bytes=4096)
        decision = planner.plan(net)
        assert decision.engine == "approx"
        assert "exceeds" in decision.reason
        assert decision.estimate.total_table_bytes > 4096

    def test_forced_policies(self, asia):
        planner = QueryPlanner()
        assert planner.plan(asia, policy="approx").engine == "approx"
        assert planner.plan(asia, policy="exact").engine == "exact"

    def test_exact_policy_refuses_over_hard_cap(self):
        net = grid_network(8, 8, rng=2)
        planner = QueryPlanner(policy="exact", max_exact_bytes=1024,
                               refuse_exact_bytes=2048)
        with pytest.raises(PlannerError, match="refusing exact compilation"):
            planner.plan(net)

    def test_exact_policy_allows_under_cap(self, asia):
        planner = QueryPlanner(policy="exact", max_exact_bytes=1024,
                               refuse_exact_bytes=1 << 30)
        assert planner.plan(asia).engine == "exact"

    def test_chain_always_exact(self):
        """Width-1 structures stay exact regardless of node count."""
        net = chain_network(200, rng=0)
        decision = QueryPlanner().plan(net)
        assert decision.engine == "exact"
        assert decision.estimate.width == 1


class TestValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(PlannerError):
            QueryPlanner(policy="maybe")

    def test_unknown_per_call_policy_rejected(self, asia):
        with pytest.raises(PlannerError):
            QueryPlanner().plan(asia, policy="sometimes")

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(PlannerError):
            QueryPlanner(max_exact_bytes=2048, refuse_exact_bytes=1024)
