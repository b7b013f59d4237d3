"""Tests for the inference service layer (registry, batcher, server, metrics)."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.bn import io_bif
from repro.bn.sampling import generate_test_cases
from repro.core import FastBNI
from repro.errors import (EvidenceError, NetworkError, QueryError,
                          ServiceError)
from repro.service import (InferenceServer, MicroBatcher, ModelRegistry,
                           QueryRequest, ServiceClient, ServiceMetrics,
                           SessionManager)

#: Evidence asia's deterministic OR node makes impossible.
IMPOSSIBLE = {"lung": "no", "tub": "no", "either": "yes"}


def _count_triangulations(monkeypatch) -> list:
    """Record the heuristic of every ``triangulate`` call from here on."""
    import importlib

    import repro.jt.structure as structure

    # The package re-exports the function under the submodule's name.
    triangulate_module = importlib.import_module("repro.graph.triangulate")
    calls = []
    real = triangulate_module.triangulate

    def counted(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("heuristic"))
        return real(*args, **kwargs)

    monkeypatch.setattr(triangulate_module, "triangulate", counted)
    monkeypatch.setattr(structure, "triangulate", counted)
    return calls


def run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------------- metrics
class TestServiceMetrics:
    def test_latency_percentiles(self):
        m = ServiceMetrics()
        for ms in range(1, 101):  # 1..100 ms
            m.observe_request("query", ms / 1e3)
        assert m.percentile(50) == pytest.approx(0.050, abs=2e-3)
        assert m.percentile(99) == pytest.approx(0.099, abs=2e-3)
        snap = m.snapshot()
        assert snap["latency_ms"]["p50"] == pytest.approx(50, abs=2)
        assert snap["latency_ms"]["max"] == pytest.approx(100, abs=1e-6)
        assert snap["requests"]["total"] == 100

    def test_batch_fill_histogram_and_mean(self):
        m = ServiceMetrics()
        for fill in (1, 2, 3, 8, 40, 200):
            m.observe_batch(fill)
        snap = m.snapshot()["batches"]
        assert snap["count"] == 6
        assert snap["mean_fill"] == pytest.approx(254 / 6)
        assert snap["max_fill"] == 200
        assert snap["fill_hist"] == {
            "le_1": 1, "le_2": 1, "le_4": 1, "le_8": 1, "le_64": 1, "inf": 1,
        }

    def test_cache_hit_rate(self):
        m = ServiceMetrics()
        m.observe_cache(hit=False)
        for _ in range(3):
            m.observe_cache(hit=True)
        assert m.snapshot()["model_cache"]["hit_rate"] == pytest.approx(0.75)

    def test_throughput_window_with_fake_clock(self):
        t = [0.0]
        m = ServiceMetrics(rate_window_s=10.0, clock=lambda: t[0])
        for _ in range(20):
            t[0] += 1.0
            m.observe_request("query", 0.001)
        snap = m.snapshot()
        # Only the last 10 s of completions are in the window.
        assert snap["throughput_rps"]["window"] == pytest.approx(1.0, rel=0.2)
        assert snap["throughput_rps"]["lifetime"] == pytest.approx(1.0)

    def test_explicit_batches_do_not_fake_coalescing(self):
        m = ServiceMetrics()
        m.observe_explicit_batch(100)
        snap = m.snapshot()["batches"]
        assert snap["mean_fill"] == 0.0
        assert snap["count"] == 0
        assert snap["explicit_count"] == 1
        assert snap["explicit_cases"] == 100

    def test_error_and_fallback_counters(self):
        m = ServiceMetrics()
        m.observe_request("query", 0.001, ok=False)
        m.observe_fallback(3)
        m.observe_baseline_hit()
        snap = m.snapshot()
        assert snap["requests"]["errors"] == 1
        assert snap["batches"]["fallback_cases"] == 3
        assert snap["model_cache"]["baseline_hits"] == 1


# -------------------------------------------------------------------- registry
class TestModelRegistry:
    def test_loads_bundled_and_analog(self):
        with ModelRegistry() as registry:
            asia = registry.get("asia")
            assert asia.net.num_variables == 8
            assert asia.resident_bytes > 0
            hail = registry.get("hailfinder")
            assert hail.net.num_variables == 56
            assert registry.loaded() == ("asia", "hailfinder")

    def test_loads_bif_path(self, asia, tmp_path):
        path = tmp_path / "asia_copy.bif"
        io_bif.dump(asia, path)
        with ModelRegistry() as registry:
            entry = registry.get(str(path))
            assert entry.net.num_variables == asia.num_variables

    def test_unknown_name_rejected(self):
        with ModelRegistry() as registry:
            with pytest.raises(NetworkError, match="unknown network"):
                registry.get("definitely-not-a-network")
            with pytest.raises(NetworkError, match="does not exist"):
                registry.get("/nonexistent/net.bif")

    def test_lru_touch_and_cache_metrics(self):
        metrics = ServiceMetrics()
        with ModelRegistry(metrics=metrics) as registry:
            registry.get("asia")
            registry.get("cancer")
            registry.get("asia")  # hit + move to MRU position
            assert registry.loaded() == ("cancer", "asia")
            cache = metrics.snapshot()["model_cache"]
            assert cache == {"hits": 1, "misses": 2,
                             "hit_rate": pytest.approx(1 / 3),
                             "baseline_hits": 0}

    @pytest.mark.parametrize("method,pins", [("get", 0), ("get_pinned", 1)])
    def test_one_lookup_behind_get_and_get_pinned(self, method, pins):
        """``get`` never touches ``pins``; ``get_pinned`` takes exactly one
        on the cold-load, the hit and the lost-race branch; both count
        cache hits and misses identically."""
        observed: list[bool] = []

        class Spy:
            def observe_cache(self, hit: bool) -> None:
                observed.append(hit)

        with ModelRegistry(metrics=Spy()) as registry:
            lookup = getattr(registry, method)
            cold = lookup("asia")
            assert (cold.pins, observed) == (pins, [False])
            hit = lookup("asia")
            assert hit is cold
            assert (hit.pins, observed) == (2 * pins, [False, True])

            # Lost race: while this caller compiles, a concurrent load of
            # the same cold model registers first.
            load = registry._load

            def load_and_lose(name, kind):
                registry._entries[name] = load_and_lose.winner = load(name, kind)
                load_and_lose.loser = load(name, kind)
                return load_and_lose.loser

            registry._load = load_and_lose
            raced = lookup("cancer")
            assert raced is load_and_lose.winner
            assert raced.pins == pins and raced.engine._closed is False
            assert load_and_lose.loser.engine._closed is True
            assert observed == [False, True]  # the loser counts nothing
            for entry, taken in ((cold, 2 * pins), (raced, pins)):
                for _ in range(taken):
                    registry.unpin(entry)

    def test_eviction_under_byte_budget(self):
        with ModelRegistry(max_bytes=1) as registry:
            for name in ("asia", "cancer", "sprinkler"):
                registry.get(name)
            # The in-use (most recent) entry always survives.
            assert registry.loaded() == ("sprinkler",)
            assert registry.stats()["evictions"] == 2
            # An evicted model reloads transparently.
            assert registry.get("asia").net.num_variables == 8

    def test_warm_start_from_model_file(self, tmp_path):
        """A warm start is the model file: the tree is compiled again (it
        is cheap) and the tables are mapped; nothing else is cached."""
        cache = tmp_path / "model-cache"
        with ModelRegistry(cache_dir=cache) as registry:
            cold = registry.get("asia")
            assert cold.from_cache is False
            prior_cold = {k: v.copy() for k, v in cold.prior.items()}
        assert len(list(cache.glob("*.npy"))) == 1
        assert not list(cache.glob("*.jt.json"))
        with ModelRegistry(cache_dir=cache) as registry:
            warm = registry.get("asia")
            assert warm.from_cache is True
            assert registry.stats()["warm_starts"] == 1
            for name, vals in prior_cold.items():
                np.testing.assert_allclose(warm.prior[name], vals, atol=1e-12)

    def test_corrupt_cache_recompiles(self, tmp_path):
        cache = tmp_path / "model-cache"
        with ModelRegistry(cache_dir=cache) as registry:
            prior = {k: v.copy() for k, v in registry.get("asia").prior.items()}
        (path,) = cache.glob("*.npy")
        path.unlink()  # published read-only
        path.write_bytes(b"{not a model file")
        with ModelRegistry(cache_dir=cache) as registry:
            entry = registry.get("asia")
            assert entry.from_cache is False
            for name, vals in prior.items():
                np.testing.assert_allclose(entry.prior[name], vals, atol=1e-12)
        with ModelRegistry(cache_dir=cache) as registry:
            assert registry.get("asia").from_cache is True  # written fresh

    def test_cold_load_triangulates_once(self, monkeypatch):
        """One cold ``get`` resolves the network once and triangulates it
        once per candidate: the planner prices the cliques the engine's
        tree is built from."""
        from repro.jt.structure import CANDIDATES

        calls = _count_triangulations(monkeypatch)
        with ModelRegistry(heuristic="min-fill") as registry:
            registry.get("hailfinder")
            assert len(calls) == 1
            registry.get("hailfinder")
            assert len(calls) == 1
        calls.clear()
        with ModelRegistry() as registry:
            entry = registry.get("hailfinder")
            assert sorted(calls) == sorted(CANDIDATES)
            registry.get("hailfinder")
            assert len(calls) == len(CANDIDATES)
            assert entry.engine.tree.heuristic == "min-weight"

    def test_cold_auto_mpe_triangulates_each_candidate_once(self,
                                                            monkeypatch):
        """``mpe`` under ``engine="auto"`` plans before it loads; the load
        builds the tree from the cliques the plan priced."""
        from repro.jt.structure import CANDIDATES

        calls = _count_triangulations(monkeypatch)

        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                def attempt():
                    with ServiceClient(port=server.port) as client:
                        return (client.mpe("hailfinder", {}, engine="auto"),
                                client.info("hailfinder"))
                return await asyncio.to_thread(attempt)
            finally:
                await server.stop()

        mpe, info = run(scenario())
        assert mpe["log_probability"] < 0
        assert sorted(calls) == sorted(CANDIDATES)
        assert info["heuristic"] == "min-weight"

    def test_plan_prices_the_engines_tree(self):
        """A min-weight registry prices the min-weight tree it serves."""
        with ModelRegistry(heuristic="min-weight") as registry:
            entry = registry.get("hailfinder")
            stats = entry.engine.tree.stats()
            assert (entry.plan.estimate.total_table_bytes
                    == 8 * stats["total_clique_size"])
            assert entry.plan.estimate.max_clique_entries == stats["max_clique_size"]

    def test_shared_cache_dir_serves_each_heuristic_its_tree(self, tmp_path):
        """A min-weight registry sharing a ``cache_dir`` with a min-fill
        one is served its own tree, not the one compiled first."""
        from repro.jt.serialize import tree_to_dict
        from repro.jt.structure import compile_cliques

        cache = tmp_path / "model-cache"
        with ModelRegistry(cache_dir=cache, heuristic="min-fill") as registry:
            min_fill = registry.get("hailfinder")
            fill_tree = tree_to_dict(min_fill.engine.tree)
        with ModelRegistry(cache_dir=cache, heuristic="min-weight") as registry:
            entry = registry.get("hailfinder")
            served = {frozenset(c.domain.names) for c in entry.engine.tree.cliques}
            assert served == set(
                compile_cliques(entry.net, "min-weight").cliques)
            assert tree_to_dict(entry.engine.tree) != fill_tree
            assert entry.from_cache is False  # a different tree, a new file

    def test_concurrent_cold_load_single_winner(self):
        import threading

        with ModelRegistry() as registry:
            barrier = threading.Barrier(4)
            results = []

            def worker():
                barrier.wait()
                results.append(registry.get("asia"))

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Racing loads converge on one resident entry; losers' engines
            # are closed and never handed out.
            assert len({id(e) for e in results}) == 1
            assert results[0].engine._closed is False
            assert registry.loaded() == ("asia",)

    def test_lease_defers_close_past_eviction(self):
        with ModelRegistry(max_bytes=1) as registry:
            with registry.lease("asia") as entry:
                # Loading another model evicts the pinned LRU entry...
                registry.get("cancer")
                assert registry.loaded() == ("cancer",)
                assert entry.retired is True
                # ...but the leased engine stays usable until release.
                assert entry.engine._closed is False
                result = entry.engine.infer_cases([{"smoke": "yes"}])
                assert len(result) == 1
            assert entry.engine._closed is True

    def test_baseline_prior_matches_engine(self, asia):
        with ModelRegistry() as registry:
            entry = registry.get("asia")
            with FastBNI(asia, mode="seq") as engine:
                want = engine.infer({})
            for name, vals in entry.prior.items():
                np.testing.assert_allclose(vals, want.posteriors[name],
                                           atol=1e-12)


    @pytest.mark.parametrize("shared", [False, True])
    def test_cache_and_sessions_share_the_engines_base_tables(self, shared,
                                                              tmp_path):
        """The result memo holds results, never tables, and sessions read
        through the entry's engine: both use the CPT-product tables of the
        plan it owns — also once they are a mapped model file."""
        with ModelRegistry(cache_dir=tmp_path if shared else None) \
                as registry, SessionManager(registry) as sessions:
            entry = registry.get("asia")
            base = entry.engine.plan.base_cliques
            assert base[0].flags.writeable is not shared
            assert len(list(tmp_path.glob("*.npy"))) == int(shared)
            sid = sessions.open("asia", {"smoke": "yes"})["session"]
            got = sessions.query(sid, ("lung",))
            assert entry.engine.plan.base_cliques is base
            with FastBNI(entry.net, mode="seq") as cold:
                want = cold.infer({"smoke": "yes"}, ("lung",))
            np.testing.assert_allclose(got["posteriors"]["lung"],
                                       want.posteriors["lung"], atol=1e-12)
            assert entry.cache.total_bytes() == 0

    @pytest.mark.parametrize("shared", [False, True])
    def test_native_entries_are_stateless_and_share_their_prior(
            self, shared, tmp_path):
        """A native entry answers a case in one foreign call (decided at
        load), its calibrated prior is charged to its residency, no index
        map is (a native plan builds none; the fused entry's are), and a
        registry with a ``cache_dir`` maps the prior from the model file
        beside the CPT products."""
        from repro.exec.native import native_status

        if not native_status()[0]:
            pytest.skip(f"native backend unavailable: {native_status()[1]}")
        with ModelRegistry(cache_dir=tmp_path if shared else None,
                           kernels="native") as native, \
                ModelRegistry() as fused:
            entry, other = native.get("asia"), fused.get("asia")
            prior = entry.engine.plan.prior_flat
            assert entry.one_foreign_call and not other.one_foreign_call
            assert other.engine.plan.prior_flat is None
            maps = other.engine.plan.stats()["plan_map_entries"]
            assert entry.engine.plan.stats()["plan_map_entries"] == 0
            assert maps > 0
            assert (entry.resident_bytes - other.resident_bytes
                    == prior.nbytes - 8 * maps)
            assert prior.flags.writeable is not shared
            assert len(list(tmp_path.glob("*.npy"))) == int(shared)
            np.testing.assert_allclose(
                entry.engine.infer({"smoke": "yes"}).posteriors["lung"],
                other.engine.infer({"smoke": "yes"}).posteriors["lung"],
                atol=1e-12)


# --------------------------------------------------------------------- batcher
def _make_batcher(cache: bool = True, **kwargs):
    metrics = ServiceMetrics()
    registry = ModelRegistry(metrics=metrics, cache=cache)
    return MicroBatcher(registry, metrics=metrics, **kwargs), registry


class TestMicroBatcher:
    def test_coalesces_and_matches_sequential(self, asia):
        cases = [c.evidence for c in
                 generate_test_cases(asia, 40, observed_fraction=0.2, rng=11)]

        async def scenario():
            # cache=False pins the pure vectorised path; the cached path's
            # equivalence is pinned separately in tests/test_cache.py.
            batcher, registry = _make_batcher(cache=False,
                                              max_batch=16)
            try:
                results = await asyncio.gather(*[
                    batcher.submit("asia", QueryRequest(evidence=case))
                    for case in cases
                ])
            finally:
                await batcher.aclose()
                registry.close()
            return results, batcher.metrics

        results, metrics = run(scenario())
        assert metrics.mean_batch_fill() > 1
        assert metrics.snapshot()["batches"]["cases"] == 40
        with FastBNI(asia, mode="seq") as engine:
            for case, got in zip(cases, results):
                want = engine.infer(case)
                for name in asia.variable_names:
                    np.testing.assert_allclose(
                        got.posteriors[name], want.posteriors[name], atol=1e-9)
                assert got.log_evidence == pytest.approx(want.log_evidence,
                                                         abs=1e-9)

    def test_soft_evidence_routes_to_fallback(self, asia):
        soft = {"xray": [0.7, 0.3]}

        async def scenario():
            batcher, registry = _make_batcher()
            try:
                result = await batcher.submit("asia", QueryRequest(
                    evidence={"smoke": "yes"}, soft_evidence=soft))
            finally:
                await batcher.aclose()
                registry.close()
            return result, batcher.metrics.snapshot()

        result, snap = run(scenario())
        assert snap["batches"]["count"] == 0
        assert snap["batches"]["fallback_cases"] == 1
        with FastBNI(asia, mode="seq") as engine:
            want = engine.infer({"smoke": "yes"}, soft_evidence=soft)
        np.testing.assert_allclose(result.posteriors["lung"],
                                   want.posteriors["lung"], atol=1e-12)

    def test_impossible_case_does_not_poison_batch(self, asia):
        good = {"smoke": "yes"}

        async def scenario():
            batcher, registry = _make_batcher(max_batch=8)
            # Resident first: on a cold model each submit resumes from the
            # off-loop load in its own iteration, and the three would not
            # share a flush.
            registry.get("asia")
            try:
                results = await asyncio.gather(
                    batcher.submit("asia", QueryRequest(evidence=good)),
                    batcher.submit("asia", QueryRequest(evidence=IMPOSSIBLE)),
                    batcher.submit("asia", QueryRequest(evidence=good)),
                    return_exceptions=True,
                )
            finally:
                await batcher.aclose()
                registry.close()
            return results, batcher.metrics.snapshot()

        (ok1, bad, ok2), snap = run(scenario())
        assert isinstance(bad, EvidenceError)
        assert snap["batches"]["fallback_cases"] == 3
        with FastBNI(asia, mode="seq") as engine:
            want = engine.infer(good)
        for got in (ok1, ok2):
            np.testing.assert_allclose(got.posteriors["bronc"],
                                       want.posteriors["bronc"], atol=1e-9)

    def test_invalid_request_rejected_before_queueing(self):
        async def scenario():
            batcher, registry = _make_batcher()
            try:
                with pytest.raises(EvidenceError, match="not in network"):
                    await batcher.submit("asia", QueryRequest(
                        evidence={"nope": "yes"}))
                with pytest.raises(EvidenceError, match="likelihood"):
                    await batcher.submit("asia", QueryRequest(
                        soft_evidence={"xray": [0.7]}))
                # Unknown targets fail identically on the baseline path
                # (no evidence) and the batched path (hard evidence).
                with pytest.raises(QueryError, match="unknown target"):
                    await batcher.submit("asia", QueryRequest(
                        targets=("nope",)))
                with pytest.raises(QueryError, match="unknown target"):
                    await batcher.submit("asia", QueryRequest(
                        evidence={"smoke": "yes"}, targets=("nope",)))
                # Nothing was queued, so nothing flushes.
                assert batcher.metrics.snapshot()["batches"]["count"] == 0
            finally:
                await batcher.aclose()
                registry.close()

        run(scenario())

    def test_empty_evidence_served_from_baseline(self, asia):
        async def scenario():
            batcher, registry = _make_batcher()
            try:
                result = await batcher.submit(
                    "asia", QueryRequest(targets=("lung",)))
            finally:
                await batcher.aclose()
                registry.close()
            return result, batcher.metrics.snapshot()

        result, snap = run(scenario())
        assert snap["model_cache"]["baseline_hits"] == 1
        assert snap["batches"]["count"] == 0
        assert set(result.posteriors) == {"lung"}
        assert result.log_evidence == 0.0
        with FastBNI(asia, mode="seq") as engine:
            want = engine.infer({})
        np.testing.assert_allclose(result.posteriors["lung"],
                                   want.posteriors["lung"], atol=1e-12)

    def test_targets_projected_per_request(self):
        async def scenario():
            batcher, registry = _make_batcher(max_batch=4)
            try:
                a, b = await asyncio.gather(
                    batcher.submit("asia", QueryRequest(
                        evidence={"smoke": "yes"}, targets=("lung",))),
                    batcher.submit("asia", QueryRequest(
                        evidence={"smoke": "no"}, targets=("bronc", "dysp"))),
                )
            finally:
                await batcher.aclose()
                registry.close()
            return a, b

        a, b = run(scenario())
        assert set(a.posteriors) == {"lung"}
        assert set(b.posteriors) == {"bronc", "dysp"}


# ---------------------------------------------------------------------- server
async def _query_over_tcp(port: int, requests: list[dict]) -> list[dict]:
    """One connection, pipelined requests; responses reordered by id."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for req in requests:
        writer.write(json.dumps(req).encode() + b"\n")
    await writer.drain()
    responses = [json.loads(await reader.readline()) for _ in requests]
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    by_id = {r["id"]: r for r in responses}
    return [by_id[req["id"]] for req in requests]


class TestInferenceServer:
    def test_acceptance_100_concurrent_queries(self, asia):
        """ISSUE acceptance: 100 concurrent queries vs FastBNI at 1e-9, fill > 1."""
        cases = [c.evidence for c in
                 generate_test_cases(asia, 100, observed_fraction=0.2, rng=7)]

        async def scenario():
            # cache=False: this acceptance test pins the vectorised
            # micro-batching path (every case served_by "batch"); the
            # cached path has its own acceptance in tests/test_cache.py.
            server = InferenceServer(port=0, max_batch=32,
                                     cache=False)
            await server.start()

            async def one(i: int) -> dict:
                (resp,) = await _query_over_tcp(server.port, [{
                    "id": i, "op": "query", "network": "asia",
                    "evidence": cases[i],
                }])
                return resp

            try:
                responses = await asyncio.gather(
                    *[one(i) for i in range(len(cases))])
                snap = server.metrics.snapshot()
            finally:
                await server.stop()
            return responses, snap

        responses, snap = run(scenario())
        assert all(r["ok"] for r in responses)
        assert snap["batches"]["mean_fill"] > 1
        assert snap["requests"]["total"] == 100
        assert snap["requests"]["errors"] == 0
        with FastBNI(asia, mode="seq") as engine:
            for case, resp in zip(cases, responses):
                want = engine.infer(case)
                result = resp["result"]
                assert result["served_by"] == "batch"
                for name, probs in result["posteriors"].items():
                    np.testing.assert_allclose(probs, want.posteriors[name],
                                               atol=1e-9)
                assert result["log_evidence"] == pytest.approx(
                    want.log_evidence, abs=1e-9)

    def test_pipelining_on_one_connection(self):
        async def scenario():
            server = InferenceServer(port=0, max_batch=16)
            # Resident first, or the twenty resume from the off-loop load
            # one by one: the first is a cold flush of one and the memo
            # answers the rest, which no vectorised flush ever sees.
            server.preload(["asia"])
            await server.start()
            try:
                requests = [{"id": i, "op": "query", "network": "asia",
                             "evidence": {"smoke": "yes"},
                             "targets": ["lung"]}
                            for i in range(20)]
                responses = await _query_over_tcp(server.port, requests)
                snap = server.metrics.snapshot()
            finally:
                await server.stop()
            return responses, snap

        responses, snap = run(scenario())
        assert all(r["ok"] for r in responses)
        assert snap["batches"]["mean_fill"] > 1

    def test_all_ops_via_sync_client(self, asia):
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                return await asyncio.to_thread(self._sync_ops, server.port)
            finally:
                await server.stop()

        health, info, mpe, batch, stats = run(scenario())
        assert health["status"] == "ok"
        assert "asia" in health["models"]
        assert info["variables"] == 8
        assert info["tree"]["num_cliques"] >= 1
        # MPE of asia given smoke=yes: verified against the engine elsewhere;
        # here check shape + consistency with the evidence.
        assert mpe["assignment"]["smoke"] == "yes"
        assert mpe["log_probability"] < 0
        assert batch["count"] == 2
        assert stats["requests"]["total"] >= 4
        assert stats["registry"]["loaded"] == ["asia"]
        assert stats["batcher"]["max_batch"] > 0
        # query_batch is tracked apart from micro-batcher coalescing.
        assert stats["batches"]["explicit_count"] == 1
        assert stats["batches"]["explicit_cases"] == 2
        assert stats["batches"]["count"] == 0

    @staticmethod
    def _sync_ops(port: int):
        with ServiceClient(port=port) as client:
            # info first: loads the model, so health reports it.
            info = client.info("asia")
            health = client.health()
            mpe = client.mpe("asia", {"smoke": "yes"})
            batch = client.query_batch(
                "asia", [{"smoke": "yes"}, {"smoke": "no"}],
                targets=["lung"])
            stats = client.stats()
        return health, info, mpe, batch, stats

    def test_mpe_matches_engine(self, asia):
        from repro.jt.mpe import most_probable_explanation
        from repro.jt.root import select_root
        from repro.jt.structure import compile_junction_tree

        tree = compile_junction_tree(asia)
        select_root(tree, "center")
        want_assign, want_lp = most_probable_explanation(tree, {"smoke": "yes"})

        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                def attempt():
                    with ServiceClient(port=server.port) as client:
                        return client.mpe("asia", {"smoke": "yes"})
                return await asyncio.to_thread(attempt)
            finally:
                await server.stop()

        got = run(scenario())
        assert got["log_probability"] == pytest.approx(want_lp, abs=1e-9)
        for name, idx in want_assign.items():
            assert got["assignment"][name] == asia.variable(name).states[idx]

    def test_error_mapping_over_wire(self):
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"this is not json\n")
                await writer.drain()
                bad_json = json.loads(await reader.readline())
                responses = await _query_over_tcp(server.port, [
                    {"id": 1, "op": "nonsense", "network": "asia"},
                    {"id": 2, "op": "query", "network": "no-such-net"},
                    {"id": 3, "op": "query", "network": "asia",
                     "evidence": {"nope": "yes"}},
                    {"id": 4, "op": "query", "network": "asia",
                     "evidence": {"xray": [0.7]}},
                    {"id": 5, "op": "query"},
                    # An unknown state is bad evidence, not a bad network.
                    {"id": 6, "op": "query", "network": "asia",
                     "evidence": {"smoke": "maybe"}},
                ])
                (opened,) = await _query_over_tcp(server.port, [
                    {"id": 7, "op": "session_open", "network": "asia"}])
                responses += await _query_over_tcp(server.port, [
                    {"id": 8, "op": "session_update",
                     "session": opened["result"]["session"],
                     "evidence": {"smoke": 5}}])
                writer.close()
            finally:
                await server.stop()
            return bad_json, responses

        bad_json, responses = run(scenario())
        assert bad_json["ok"] is False
        assert bad_json["error"]["type"] == "ParseError"
        types = [r["error"]["type"] for r in responses]
        assert types == ["QueryError", "NetworkError", "EvidenceError",
                         "EvidenceError", "QueryError", "EvidenceError",
                         "EvidenceError"]
        assert all(r["ok"] is False for r in responses)
        assert "'maybe'" in responses[5]["error"]["message"]
        assert "smoke" in responses[6]["error"]["message"]

    def test_soft_evidence_over_wire(self, asia):
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                (resp,) = await _query_over_tcp(server.port, [{
                    "id": 1, "op": "query", "network": "asia",
                    "evidence": {"smoke": "yes", "xray": [0.7, 0.3]},
                    "targets": ["lung"],
                }])
            finally:
                await server.stop()
            return resp

        resp = run(scenario())
        assert resp["ok"]
        assert resp["result"]["served_by"] == "single"
        with FastBNI(asia, mode="seq") as engine:
            want = engine.infer({"smoke": "yes"},
                                soft_evidence={"xray": [0.7, 0.3]})
        np.testing.assert_allclose(resp["result"]["posteriors"]["lung"],
                                   want.posteriors["lung"], atol=1e-9)

    def test_client_raises_service_error(self):
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                def attempt():
                    with ServiceClient(port=server.port) as client:
                        with pytest.raises(ServiceError) as excinfo:
                            client.query("asia", {"nope": "yes"})
                        return excinfo.value
                return await asyncio.to_thread(attempt)
            finally:
                await server.stop()

        exc = run(scenario())
        assert exc.error_type == "EvidenceError"
        assert "not in network" in str(exc)

    def test_client_connect_failure(self):
        with pytest.raises(ServiceError, match="cannot connect"):
            ServiceClient(port=1, connect_retry_s=0.0)


# ------------------------------------------------------------------ core hooks
class TestWarmStartHooks:
    def test_fastbni_accepts_precompiled_tree(self, asia):
        from repro.jt.structure import compile_junction_tree

        tree = compile_junction_tree(asia)
        with FastBNI(asia, tree=tree, mode="seq") as engine:
            assert engine.tree is tree
            got = engine.infer({"smoke": "yes"})
        with FastBNI(asia, mode="seq") as fresh:
            want = fresh.infer({"smoke": "yes"})
        np.testing.assert_allclose(got.posteriors["lung"],
                                   want.posteriors["lung"], atol=1e-12)

    def test_fastbni_rejects_foreign_tree(self, asia, sprinkler):
        from repro.errors import JunctionTreeError
        from repro.jt.structure import compile_junction_tree

        tree = compile_junction_tree(sprinkler)
        with pytest.raises(JunctionTreeError, match="different network"):
            FastBNI(asia, tree=tree, mode="seq")

    def test_prepare_baseline_is_idempotent(self, asia):
        from repro.core import BatchedFastBNI

        with BatchedFastBNI(asia, mode="seq") as engine:
            engine.prepare_baseline()
            plan = engine.plan
            messages = plan.compiled_messages()
            base = plan.base_cliques
            assert messages and all(m[5] is not None and m[6] is not None
                                    for m in messages)  # maps prefetched
            engine.prepare_baseline()
            assert plan.base_cliques is base
            assert plan.compiled_messages() is messages
            result = engine.infer_cases([{"smoke": "yes"}])
            assert len(result) == 1
