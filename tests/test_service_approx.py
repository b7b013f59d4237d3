"""Service-layer tests for the approximate engine and the query planner.

Covers the acceptance path end-to-end: a generated high-treewidth network
is registered with the model registry, the planner routes it to the
sampling engine, and a TCP ``query`` with ``engine="auto"`` returns
posteriors carrying ``engine="approx"``, ``ess`` and per-target ``stderr``
fields — all through the real asyncio server and micro-batcher.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.approx import ApproxBNI
from repro.bn.generators import grid_network
from repro.core import FastBNI
from repro.errors import PlannerError, ServiceError
from repro.service import InferenceServer, MicroBatcher, QueryRequest
from repro.service.registry import ModelRegistry, entry_key

APPROX_OPTIONS = {"num_samples": 1024, "max_samples": 8192,
                  "tolerance": 0.02, "seed": 31}


def run(coro):
    return asyncio.run(coro)


def make_registry(**kwargs) -> ModelRegistry:
    kwargs.setdefault("approx_options", dict(APPROX_OPTIONS))
    return ModelRegistry(**kwargs)


@pytest.fixture()
def grid():
    """6×6 binary lattice: fill-in width ≥ 6 — cheap to sample, pricey to
    compile relative to a small byte threshold."""
    return grid_network(6, 6, rng=3)


class TestRegistryPolicy:
    def test_auto_routes_by_cost(self, grid):
        with make_registry(policy="auto", max_exact_bytes=5000) as registry:
            registry.register("grid", grid)
            exact_entry = registry.get("asia")
            approx_entry = registry.get("grid")
            assert exact_entry.engine_kind == "exact"
            assert approx_entry.engine_kind == "approx"
            assert isinstance(approx_entry.engine, ApproxBNI)
            assert registry.loaded() == ("asia", "grid@approx")

    def test_auto_request_means_cost_model_not_default_policy(self, grid):
        """A per-request engine="auto" must be the *cost* decision even
        when the registry default forces one engine class (regression:
        plan_for once deferred to the default policy)."""
        with make_registry(policy="approx") as registry:
            # Default policy approx, but auto must still pick exact for
            # a tiny network...
            assert registry.get("asia", engine="auto").engine_kind == "exact"
        with make_registry(policy="exact", max_exact_bytes=5000) as registry:
            # ...and approx for an expensive one under an exact default.
            registry.register("grid", grid)
            entry = registry.get("grid", engine="auto")
            assert entry.engine_kind == "approx"

    def test_plan_for_keeps_only_a_triangulation_a_load_follows(self, grid):
        """An approx decision is not followed by a load (mpe rejects it),
        so its network and triangulation are not kept; an exact one is,
        until its load."""
        with make_registry(policy="auto", max_exact_bytes=5000) as registry:
            registry.register("grid", grid)
            assert registry.plan_for("grid").engine == "approx"
            assert registry.plan_for("asia").engine == "exact"
            assert set(registry._priced) == {"asia"}
            registry.get("asia")
            assert registry._priced == {}

    def test_explicit_engine_overrides_policy(self, grid):
        with make_registry(policy="auto", max_exact_bytes=5000) as registry:
            registry.register("grid", grid)
            forced = registry.get("grid", engine="exact")
            assert forced.engine_kind == "exact"
            # Both residencies coexist under distinct keys.
            auto = registry.get("grid")
            assert auto.engine_kind == "approx"
            assert set(registry.loaded()) == {"grid", "grid@approx"}

    def test_approx_engine_on_small_network(self):
        with make_registry() as registry:
            entry = registry.get("asia", engine="approx")
            assert entry.engine_kind == "approx"
            assert entry.prior_result is not None
            # The sampled prior still sums to one per variable.
            for p in entry.prior.values():
                assert p.sum() == pytest.approx(1.0)

    def test_plan_recorded_on_entry(self, grid):
        with make_registry(policy="auto", max_exact_bytes=5000) as registry:
            registry.register("grid", grid)
            entry = registry.get("grid")
            assert entry.plan is not None
            assert entry.plan.engine == "approx"
            assert entry.plan.estimate.total_table_bytes > 5000

    def test_exact_policy_refusal_propagates(self):
        big = grid_network(8, 8, rng=5)
        with make_registry(policy="exact", max_exact_bytes=1024) as registry:
            registry.register("big", big)
            registry.planner.refuse_exact_bytes = 2048
            with pytest.raises(PlannerError):
                registry.get("big")

    def test_clique_past_the_table_bound_is_routed_not_built(self):
        """A network whose tree would hold a 2^64-entry clique is sampled
        under ``auto`` and refused under ``exact``; the registry never
        tries to build the table (no ``PotentialError``)."""
        from tests.test_planner import married_roots

        with make_registry() as registry:
            registry.register("roots", married_roots())
            assert registry.get("roots").engine_kind == "approx"
            with pytest.raises(PlannerError, match="refusing exact"):
                registry.get("roots", engine="exact")

    def test_evict_approx_key(self, grid):
        with make_registry(policy="approx") as registry:
            registry.register("grid", grid)
            registry.get("grid")
            assert registry.evict("grid") == entry_key("grid", "approx")
            assert registry.loaded() == ()

    def test_stats_count_engine_kinds(self, grid):
        with make_registry(policy="auto", max_exact_bytes=5000) as registry:
            registry.register("grid", grid)
            registry.get("asia")
            registry.get("grid")
            stats = registry.stats()
            assert stats["exact_models"] == 1
            assert stats["approx_models"] == 1
            assert stats["policy"] == "auto"

    def test_reregister_invalidates_stale_residency(self, grid):
        """Updating a registered network must drop the old plan and any
        resident engine compiled from the previous object (regression:
        register() once left both, serving stale answers)."""
        from repro.bn.datasets import load_dataset

        with make_registry() as registry:
            registry.register("m", load_dataset("asia"))
            assert registry.get("m").net.num_variables == 8
            registry.register("m", load_dataset("cancer"))
            entry = registry.get("m")
            assert entry.net.num_variables == 5
            assert "Smoker" in entry.net
            # The cached auto plan was refreshed too, not just the entry:
            # it prices cancer's compiled cliques (16 entries).
            assert registry.plan_for("m").estimate.total_table_bytes == 128
            # A network priced by plan_for but replaced before its load
            # is not the one loaded.
            registry.evict("m")
            registry.register("m", load_dataset("asia"))
            registry.plan_for("m")
            registry.register("m", load_dataset("sprinkler"))
            assert registry.get("m").net.num_variables == 4

    def test_register_validates(self):
        from repro.bn.network import BayesianNetwork
        from repro.errors import NetworkError

        with make_registry() as registry:
            net = BayesianNetwork("empty")
            from repro.bn.cpt import CPT
            from repro.bn.variable import Variable

            v = Variable.with_arity("a", 2)
            net.add_variable(v)  # no CPT: invalid
            with pytest.raises(NetworkError):
                registry.register("bad", net)


class TestBatcherApprox:
    def test_approx_queries_coalesce(self, grid):
        registry = make_registry(policy="auto", max_exact_bytes=5000)
        registry.register("grid", grid)
        # Resident (and planned) first: the eight submits then enqueue in
        # one loop iteration and leave as one flush.  On a cold model each
        # would resume from the off-loop load in its own iteration.
        assert registry.get("grid").engine_kind == "approx"
        batcher = MicroBatcher(registry, max_batch=16)

        async def scenario():
            queries = [QueryRequest(evidence={"g000_000": 1},
                                    targets=("g005_005",))
                       for _ in range(8)]
            results = await asyncio.gather(
                *[batcher.submit("grid", q) for q in queries])
            await batcher.aclose()
            return results

        try:
            results = run(scenario())
        finally:
            registry.close()
        assert batcher.metrics.mean_batch_fill() == 8.0
        # Shared particle population: identical coalesced cases agree exactly.
        for r in results[1:]:
            np.testing.assert_array_equal(r.posteriors["g005_005"],
                                          results[0].posteriors["g005_005"])
        assert all(r.ess > 0 for r in results)
        snapshot = batcher.metrics.snapshot()
        assert snapshot["engines"]["approx_cases"] == 8
        assert snapshot["engines"]["mean_ess"] > 0

    def test_soft_evidence_coalesces_on_approx(self):
        registry = make_registry()
        registry.get("asia", engine="approx")  # resident: one iteration, one flush
        batcher = MicroBatcher(registry, max_batch=4)

        async def scenario():
            soft = QueryRequest(evidence={"smoke": "yes"},
                                soft_evidence={"xray": [0.7, 0.3]},
                                targets=("lung",), engine="approx")
            hard = QueryRequest(evidence={"bronc": "yes"},
                                targets=("lung",), engine="approx")
            results = await asyncio.gather(batcher.submit("asia", soft),
                                           batcher.submit("asia", hard))
            await batcher.aclose()
            return results

        try:
            soft_result, hard_result = run(scenario())
        finally:
            registry.close()
        # Soft evidence joined the vectorised flush (fill 2, no fallback).
        assert batcher.metrics.mean_batch_fill() == 2.0
        assert batcher.metrics.snapshot()["batches"]["fallback_cases"] == 0
        with FastBNI(registry_net(), mode="seq") as exact_engine:
            exact = exact_engine.infer({"smoke": "yes"},
                                       soft_evidence={"xray": [0.7, 0.3]})
        diff = np.abs(soft_result.posteriors["lung"]
                      - exact.posteriors["lung"])
        assert np.all(diff <= 3 * np.maximum(
            soft_result.stderr["lung"], 5e-4))

    def test_prior_served_with_error_bars(self):
        registry = make_registry()
        batcher = MicroBatcher(registry, max_batch=4)

        async def scenario():
            result = await batcher.submit(
                "asia", QueryRequest(targets=("lung",), engine="approx"))
            await batcher.aclose()
            return result

        try:
            result = run(scenario())
        finally:
            registry.close()
        assert result.ess > 0
        assert "lung" in result.stderr
        assert result.log_evidence == pytest.approx(0.0)


def registry_net():
    from repro.bn.datasets import load_dataset

    return load_dataset("asia")


async def _rpc(reader, writer, **request):
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


class TestServerApprox:
    def test_acceptance_auto_routing_over_tcp(self, grid):
        """The issue's acceptance path: a generated high-treewidth network
        routes to the approx engine through the real TCP service, and the
        response payload carries the routing decision and error bars."""
        registry = make_registry(policy="auto", max_exact_bytes=5000)
        registry.register("grid", grid)

        async def scenario():
            server = InferenceServer(port=0, registry=registry)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            approx = await _rpc(reader, writer, id=1, op="query",
                                network="grid", engine="auto",
                                evidence={"g000_000": 1},
                                targets=["g005_005"])
            exact = await _rpc(reader, writer, id=2, op="query",
                               network="asia", engine="auto",
                               evidence={"smoke": "yes"}, targets=["lung"])
            info = await _rpc(reader, writer, id=3, op="info",
                              network="grid")
            stats = await _rpc(reader, writer, id=4, op="stats")
            reset = await _rpc(reader, writer, id=5, op="stats_reset")
            stats_after = await _rpc(reader, writer, id=6, op="stats")
            writer.close()
            await server.stop()
            return approx, exact, info, stats, reset, stats_after

        try:
            approx, exact, info, stats, reset, stats_after = run(scenario())
        finally:
            registry.close()

        assert approx["ok"], approx
        result = approx["result"]
        assert result["engine"] == "approx"
        assert result["ess"] > 0
        assert result["num_samples"] >= APPROX_OPTIONS["num_samples"]
        se = result["stderr"]["g005_005"]
        assert len(se) == 2 and all(s >= 0 for s in se)
        probs = result["posteriors"]["g005_005"]
        assert sum(probs) == pytest.approx(1.0)

        assert exact["result"]["engine"] == "exact"
        assert "stderr" not in exact["result"]

        assert info["result"]["engine"] == "approx"
        assert "exceeds" in info["result"]["plan"]["reason"]

        engines = stats["result"]["engines"]
        assert engines["approx_cases"] >= 1
        assert engines["exact_cases"] >= 1
        assert engines["mean_ess"] > 0
        assert stats["result"]["registry"]["approx_models"] == 1

        assert reset["result"] == {"reset": True}
        after = stats_after["result"]
        assert after["engines"] == {"exact_cases": 0, "approx_cases": 0,
                                    "mean_ess": 0.0}
        assert after["requests"]["total"] == 1  # just the stats call itself

    def test_mixed_soft_evidence_over_tcp(self):
        """Hard+soft evidence through the service approx path, checked
        against the exact engine within 3 reported standard errors.

        The registry's auto threshold is set below even asia's tiny
        estimate, so the request goes out with ``engine="auto"`` and the
        response payload must carry the planner's routing decision."""
        registry = make_registry(policy="auto", max_exact_bytes=100)

        async def scenario():
            server = InferenceServer(port=0, registry=registry)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            response = await _rpc(
                reader, writer, id=1, op="query", network="asia",
                engine="auto",
                evidence={"smoke": "yes", "xray": [0.7, 0.3]},
                targets=["lung", "bronc"])
            writer.close()
            await server.stop()
            return response

        try:
            response = run(scenario())
        finally:
            registry.close()
        assert response["ok"], response
        result = response["result"]
        assert result["engine"] == "approx"
        with FastBNI(registry_net(), mode="seq") as engine:
            exact = engine.infer({"smoke": "yes"},
                                 soft_evidence={"xray": [0.7, 0.3]})
        for name in ("lung", "bronc"):
            diff = np.abs(np.asarray(result["posteriors"][name])
                          - exact.posteriors[name])
            se = np.maximum(np.asarray(result["stderr"][name]), 5e-4)
            assert np.all(diff <= 3 * se)

    def test_query_batch_approx_fields(self, grid):
        registry = make_registry(policy="auto", max_exact_bytes=5000)
        registry.register("grid", grid)

        async def scenario():
            server = InferenceServer(port=0, registry=registry)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            response = await _rpc(
                reader, writer, id=1, op="query_batch", network="grid",
                cases=[{"g000_000": 1}, {"g000_000": 0}],
                targets=["g005_005"])
            writer.close()
            await server.stop()
            return response

        try:
            response = run(scenario())
        finally:
            registry.close()
        assert response["ok"], response
        cases = response["result"]["cases"]
        assert len(cases) == 2
        for case in cases:
            assert case["engine"] == "approx"
            assert case["ess"] > 0
            assert "g005_005" in case["stderr"]

    def test_mpe_on_approx_model_rejected(self, grid):
        registry = make_registry(policy="approx")

        async def scenario():
            server = InferenceServer(port=0, registry=registry)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            response = await _rpc(reader, writer, id=1, op="mpe",
                                  network="asia",
                                  evidence={"smoke": "yes"})
            writer.close()
            await server.stop()
            return response

        try:
            response = run(scenario())
        finally:
            registry.close()
        assert not response["ok"]
        assert response["error"]["type"] == "QueryError"
        assert "exact" in response["error"]["message"]

    def test_bad_engine_field_rejected(self):
        registry = make_registry()

        async def scenario():
            server = InferenceServer(port=0, registry=registry)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            response = await _rpc(reader, writer, id=1, op="query",
                                  network="asia", engine="quantum")
            writer.close()
            await server.stop()
            return response

        try:
            response = run(scenario())
        finally:
            registry.close()
        assert not response["ok"]
        assert response["error"]["type"] == "QueryError"

    def test_sync_client_approx_round_trip(self):
        from repro.service.client import ServiceClient

        registry = make_registry()

        async def scenario():
            server = InferenceServer(port=0, registry=registry)
            await server.start()
            loop = asyncio.get_running_loop()

            def sync_calls(port: int):
                with ServiceClient("127.0.0.1", port) as client:
                    result = client.query("asia", {"smoke": "yes"},
                                          targets=("lung",),
                                          engine="approx")
                    reset = client.stats_reset()
                    return result, reset

            result, reset = await loop.run_in_executor(
                None, sync_calls, server.port)
            await server.stop()
            return result, reset

        try:
            result, reset = run(scenario())
        finally:
            registry.close()
        assert result["engine"] == "approx"
        assert result["ess"] > 0
        assert reset == {"reset": True}
