"""Tests for the per-model result memo (repro.service.cache) and its
service wiring.

The non-negotiables pinned here:

* repeated and near-duplicate traffic through the micro-batcher — memo
  hits and cold flushes alike — matches a cold full calibration to 1e-12;
* eviction under byte pressure — and ``register()`` replacing a network
  in place — can never serve a stale result.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.bn.cpt import CPT
from repro.bn.network import BayesianNetwork
from repro.bn.sampling import generate_test_cases
from repro.bn.variable import Variable
from repro.core import FastBNI
from repro.errors import EvidenceError
from repro.jt.structure import compile_junction_tree
from repro.service import (InferenceServer, MicroBatcher, ModelRegistry,
                           QueryRequest, ServiceMetrics)
from repro.service.cache import InferenceCache, canonical_evidence


def run(coro):
    return asyncio.run(coro)


def coin_net(p_no: float, name: str = "coin") -> BayesianNetwork:
    """A one-node network whose P(coin=no) is exactly its parameter.

    (``Variable.binary`` orders states ``("no", "yes")``.)
    """
    coin = Variable.binary("coin")
    net = BayesianNetwork(name)
    net.add_variable(coin)
    net.add_cpt(CPT(coin, (), np.array([p_no, 1.0 - p_no])))
    return net.validate()


# ----------------------------------------------------------------- unit level
class TestCanonicalEvidence:
    def test_labels_and_indices_share_a_key(self, asia):
        tree = compile_junction_tree(asia)
        assert (canonical_evidence(tree, {"smoke": "yes", "xray": "no"})
                == canonical_evidence(tree, {"xray": 1, "smoke": 0}))

    def test_unknown_variable_raises(self, asia):
        tree = compile_junction_tree(asia)
        with pytest.raises(EvidenceError, match="not in network"):
            canonical_evidence(tree, {"nope": 0})


class TestResultMemo:
    def test_exact_hit_and_counters(self, asia):
        cache = InferenceCache(compile_junction_tree(asia))
        key = cache.evidence_key({"smoke": "yes"})
        assert cache.lookup_result(key, ("lung",)) is None
        with FastBNI(asia, mode="seq") as engine:
            result = engine.infer({"smoke": "yes"}, ("lung",))
        cache.store_result(key, ("lung",), result)
        hit = cache.lookup_result(key, ("lung",))
        np.testing.assert_allclose(hit.posteriors["lung"],
                                   result.posteriors["lung"])
        stats = cache.stats()
        assert stats["result_hits"] == 1
        assert stats["result_misses"] == 1

    def test_full_entry_answers_subset_targets(self, asia):
        cache = InferenceCache(compile_junction_tree(asia))
        key = cache.evidence_key({"smoke": "yes"})
        with FastBNI(asia, mode="seq") as engine:
            cache.store_result(key, (), engine.infer({"smoke": "yes"}))
        hit = cache.lookup_result(key, ("lung", "bronc"))
        assert set(hit.posteriors) == {"lung", "bronc"}

    def test_memo_lru_eviction(self, asia):
        cache = InferenceCache(compile_junction_tree(asia), max_memo=2)
        with FastBNI(asia, mode="seq") as engine:
            for i, name in enumerate(["smoke", "asia", "bronc"]):
                key = cache.evidence_key({name: 0})
                cache.store_result(key, (), engine.infer({name: 0}))
        stats = cache.stats()
        assert stats["memo_entries"] == 2
        assert stats["evicted_results"] == 1
        assert cache.lookup_result(cache.evidence_key({"smoke": 0}), ()) is None


class TestServeCases:
    def test_miss_declined_to_cold_path(self, asia):
        cache = InferenceCache(compile_junction_tree(asia))
        with FastBNI(asia, mode="seq") as engine:
            cache.record_cold([({"smoke": "yes"}, (),
                                engine.infer({"smoke": "yes"}))])
        hit, miss = cache.serve_cases([({"smoke": "yes"}, ("lung",)),
                                       ({"dysp": "yes", "bronc": "no"}, ())])
        assert set(hit.posteriors) == {"lung"} and miss is None
        stats = cache.stats()
        assert (stats["result_hits"], stats["declined"]) == (1, 1)
        assert stats["delta_served"] == 0

    def test_unvalidatable_case_errors_alone(self, asia):
        """A case that stopped validating (e.g. register() swapped the
        network after submit-time validation) errors in its own slot —
        it must never fail the whole pre-pass and strand the batch."""
        cache = InferenceCache(compile_junction_tree(asia))
        served = cache.serve_cases([
            ({"smoke": "yes"}, ("lung",)),
            ({"no_such_variable": 0}, ()),
            ({"smoke": "no"}, ("lung",)),
        ])
        assert served[0] is None and served[2] is None
        assert isinstance(served[1], EvidenceError)
        assert cache.stats()["declined"] == 2

    def test_byte_pressure_evicts_but_stays_correct(self, asia):
        tree = compile_junction_tree(asia)
        # A budget tight enough that memoised results must rotate.
        cache = InferenceCache(tree, max_bytes=4_096)
        with FastBNI(asia, mode="seq") as engine:
            for i in range(12):
                evidence = {"smoke": i % 2, "bronc": (i // 2) % 2,
                            "asia": (i // 4) % 2}
                want = engine.infer(evidence)
                cache.record_cold([(evidence, (), want)])
                (hit,) = cache.serve_cases([(evidence, ())])
                for name in asia.variable_names:
                    np.testing.assert_allclose(
                        hit.posteriors[name], want.posteriors[name],
                        atol=1e-12, rtol=0)
            assert cache.total_bytes() <= 4_096
            # Whatever survived eviction still answers correctly.
            for i in range(8):
                evidence = {"smoke": i % 2, "bronc": (i // 2) % 2,
                            "asia": (i // 4) % 2}
                (hit,) = cache.serve_cases([(evidence, ("lung",))])
                if hit is not None:
                    np.testing.assert_allclose(
                        hit.posteriors["lung"],
                        engine.infer(evidence).posteriors["lung"],
                        atol=1e-12, rtol=0)
        stats = cache.stats()
        assert stats["evicted_results"] >= 1
        assert stats["bytes"] == cache.total_bytes()


# -------------------------------------------------------------- service level
def _make_batcher(**kwargs):
    metrics = ServiceMetrics()
    registry = ModelRegistry(metrics=metrics, **kwargs.pop("registry", {}))
    return MicroBatcher(registry, metrics=metrics, **kwargs), registry


class TestBatcherIntegration:
    def test_repeated_evidence_matches_cold(self, asia):
        """Randomized traffic of cases, their exact repeats and their
        one-flip near duplicates: memo hits and cold flushes alike match
        a cold calibration to 1e-12."""
        base_cases = [c.evidence for c in
                      generate_test_cases(asia, 12, observed_fraction=0.3,
                                          rng=5)]
        traffic = []
        for case in base_cases:
            traffic += [case, case]
            if case:
                name = sorted(case)[0]
                flipped = dict(case)
                flipped[name] = 1 - asia.variable(name).state_index(case[name])
                traffic.append(flipped)

        async def scenario():
            batcher, registry = _make_batcher(max_batch=4)
            try:
                results = []
                for case in traffic:  # sequential: exercises memo reuse
                    results.append(await batcher.submit(
                        "asia", QueryRequest(evidence=case)))
                snap = batcher.metrics.snapshot()
            finally:
                await batcher.aclose()
                registry.close()
            return results, snap

        results, snap = run(scenario())
        with FastBNI(asia, mode="seq") as engine:
            for case, got in zip(traffic, results):
                want = engine.infer(case)
                for name in asia.variable_names:
                    np.testing.assert_allclose(got.posteriors[name],
                                               want.posteriors[name],
                                               atol=1e-12, rtol=0)
                assert got.log_evidence == pytest.approx(want.log_evidence,
                                                         abs=1e-12)
        assert snap["incremental"] == {"memo_served": sum(
            1 for r in results if r.meta.get("served_by") == "cache")}
        assert snap["incremental"]["memo_served"] >= len(base_cases) - 1

    def test_impossible_case_errors_alone(self, asia):
        """An impossible case poisons its vectorised flush; the per-case
        retry gives it the error and its bystanders their answers."""
        cases = [{"smoke": "yes"},
                 {"lung": "no", "tub": "no", "either": "yes"},
                 {"smoke": "no"}]

        async def scenario():
            batcher, registry = _make_batcher(max_batch=4)
            try:
                registry.get("asia")
                return await asyncio.gather(*(
                    batcher.submit("asia", QueryRequest(evidence=case,
                                                        targets=("lung",)))
                    for case in cases), return_exceptions=True)
            finally:
                await batcher.aclose()
                registry.close()

        first, bad, last = run(scenario())
        assert isinstance(bad, EvidenceError)
        with FastBNI(asia, mode="seq") as engine:
            for case, got in ((cases[0], first), (cases[2], last)):
                np.testing.assert_allclose(
                    got.posteriors["lung"],
                    engine.infer(case, ("lung",)).posteriors["lung"],
                    atol=1e-12, rtol=0)

    def test_exact_repeat_hits_result_memo(self, asia):
        async def scenario():
            batcher, registry = _make_batcher(max_batch=4)
            try:
                first = await batcher.submit(
                    "asia", QueryRequest(evidence={"smoke": "yes"}))
                second = await batcher.submit(
                    "asia", QueryRequest(evidence={"smoke": "yes"}))
                snap = batcher.metrics.snapshot()
            finally:
                await batcher.aclose()
                registry.close()
            return first, second, snap

        first, second, snap = run(scenario())
        for name in asia.variable_names:
            np.testing.assert_allclose(first.posteriors[name],
                                       second.posteriors[name], rtol=0)
        assert snap["incremental"]["memo_served"] >= 1
        assert second.meta.get("served_by") == "cache"

    def test_register_replacement_never_serves_stale(self):
        """ISSUE pin: register() swapping a network invalidates everything."""
        async def scenario():
            batcher, registry = _make_batcher(max_batch=2)
            try:
                registry.register("m", coin_net(0.9))
                first = await batcher.submit("m", QueryRequest())
                # Warm the cache with an evidence query + its repeat.
                for _ in range(2):
                    await batcher.submit(
                        "m", QueryRequest(evidence={"coin": "yes"},
                                          targets=("coin",)))
                registry.register("m", coin_net(0.1))
                second = await batcher.submit("m", QueryRequest())
                evidence_after = await batcher.submit(
                    "m", QueryRequest(evidence={"coin": "yes"},
                                      targets=("coin",)))
            finally:
                await batcher.aclose()
                registry.close()
            return first, second, evidence_after

        first, second, evidence_after = run(scenario())
        assert first.posteriors["coin"][0] == pytest.approx(0.9)
        assert second.posteriors["coin"][0] == pytest.approx(0.1)
        # The (evidence, targets) memo key matches the pre-replacement
        # query exactly — a stale cache would still be *consistent* here,
        # so assert the deterministic conditioned value: P(coin=yes |
        # coin=yes) = 1, i.e. state "no" (index 0) gets probability 0.
        assert evidence_after.posteriors["coin"][1] == pytest.approx(1.0)
        assert evidence_after.posteriors["coin"][0] == pytest.approx(0.0)

    def test_registry_eviction_drops_cache_with_entry(self, asia):
        async def scenario():
            batcher, registry = _make_batcher(max_batch=2)
            try:
                await batcher.submit(
                    "asia", QueryRequest(evidence={"smoke": "yes"}))
                assert registry.cache_stats()["models"]["asia"] is not None
                registry.evict("asia")
                assert "asia" not in registry.cache_stats()["models"]
                # Reload serves fresh (and re-creates an empty cache).
                result = await batcher.submit(
                    "asia", QueryRequest(evidence={"smoke": "yes"}))
            finally:
                await batcher.aclose()
                registry.close()
            return result

        result = run(scenario())
        assert result.log_evidence < 0.0

    def test_cache_disabled_registry_has_no_caches(self, asia):
        async def scenario():
            batcher, registry = _make_batcher(
                max_batch=2, registry={"cache": False})
            try:
                await batcher.submit(
                    "asia", QueryRequest(evidence={"smoke": "yes"}))
                stats = registry.cache_stats()
                snap = batcher.metrics.snapshot()
            finally:
                await batcher.aclose()
                registry.close()
            return stats, snap

        stats, snap = run(scenario())
        assert stats == {"enabled": False, "models": {}}
        assert snap["incremental"] == {"memo_served": 0}


class TestServerIntegration:
    def test_cache_stats_op_and_served_by_over_tcp(self, asia):
        async def scenario():
            server = InferenceServer(port=0, max_batch=4)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                import json

                async def ask(payload):
                    writer.write(json.dumps(payload).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                first = await ask({"id": 1, "op": "query", "network": "asia",
                                   "evidence": {"smoke": "yes"}})
                repeat = await ask({"id": 2, "op": "query", "network": "asia",
                                    "evidence": {"smoke": "yes"}})
                near = await ask({"id": 3, "op": "query", "network": "asia",
                                  "evidence": {"smoke": "no"}})
                stats = await ask({"id": 4, "op": "cache_stats"})
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
            return first, repeat, near, stats

        first, repeat, near, stats = run(scenario())
        assert first["ok"] and repeat["ok"] and near["ok"]
        assert first["result"]["served_by"] == "batch"
        assert repeat["result"]["served_by"] == "cache"
        assert near["result"]["served_by"] == "batch"
        np.testing.assert_allclose(repeat["result"]["posteriors"]["lung"],
                                   first["result"]["posteriors"]["lung"])
        body = stats["result"]
        assert body["enabled"] is True
        assert body["served"] == {"memo_served": 1}
        model = body["models"]["asia"]
        assert (model["result_hits"], model["delta_served"],
                model["declined"]) == (1, 0, 2)
