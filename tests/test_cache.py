"""Tests for the two-tier inference cache (repro.service.cache) and its
service wiring.

The non-negotiables pinned here (ISSUE acceptance):

* the delta path matches a cold full calibration to 1e-12 under
  randomized add/retract traffic, end-to-end through the micro-batcher;
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
from repro.service.cache import CacheServed, InferenceCache, canonical_evidence


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


class TestDeltaServing:
    def test_serve_after_seed_matches_cold(self, asia):
        cache = InferenceCache(compile_junction_tree(asia))
        cache.seed({"smoke": "yes", "asia": "no"})
        served = cache.serve_cases([({"smoke": "yes", "asia": "yes"},
                                     ("lung",))])
        (outcome,) = served
        assert isinstance(outcome, CacheServed)
        assert outcome.source == "delta"
        assert outcome.delta_size == 1
        with FastBNI(asia, mode="seq") as engine:
            want = engine.infer({"smoke": "yes", "asia": "yes"}, ("lung",))
        np.testing.assert_allclose(outcome.result.posteriors["lung"],
                                   want.posteriors["lung"], atol=1e-12, rtol=0)
        assert outcome.result.log_evidence == pytest.approx(
            want.log_evidence, abs=1e-12)

    def test_low_overlap_declined_to_cold_path(self, asia):
        cache = InferenceCache(compile_junction_tree(asia), min_overlap=0.5)
        cache.seed({"smoke": "yes"})
        (outcome,) = cache.serve_cases([({"dysp": "yes", "bronc": "no"}, ())])
        assert outcome is None
        assert cache.stats()["declined"] == 1

    def test_min_overlap_zero_bootstraps_from_baseline(self, asia):
        cache = InferenceCache(compile_junction_tree(asia), min_overlap=0.0)
        (outcome,) = cache.serve_cases([({"dysp": "yes"}, ("lung",))])
        assert isinstance(outcome, CacheServed)
        assert outcome.source == "delta"

    def test_impossible_case_errors_alone(self, asia):
        cache = InferenceCache(compile_junction_tree(asia), min_overlap=0.0)
        served = cache.serve_cases([
            ({"smoke": "yes"}, ("lung",)),
            ({"lung": "no", "tub": "no", "either": "yes"}, ("dysp",)),
            ({"smoke": "no"}, ("lung",)),
        ])
        assert isinstance(served[0], CacheServed)
        assert isinstance(served[1], EvidenceError)
        assert isinstance(served[2], CacheServed)
        assert cache.stats()["discarded_states"] == 1

    def test_unvalidatable_case_errors_alone(self, asia):
        """A case that stopped validating (e.g. register() swapped the
        network after submit-time validation) errors in its own slot —
        it must never fail the whole pre-pass and strand the batch."""
        cache = InferenceCache(compile_junction_tree(asia), min_overlap=0.0)
        served = cache.serve_cases([
            ({"smoke": "yes"}, ("lung",)),
            ({"no_such_variable": 0}, ()),
            ({"smoke": "no"}, ("lung",)),
        ])
        assert isinstance(served[0], CacheServed)
        assert isinstance(served[1], EvidenceError)
        assert isinstance(served[2], CacheServed)

    def test_state_lru_bounded_under_seed_churn(self, asia):
        """serve_cases recycles one state; churn comes from seeding."""
        cache = InferenceCache(compile_junction_tree(asia), max_states=3,
                               min_overlap=0.0)
        for i in range(10):
            cache.seed({"smoke": i % 2, "asia": (i // 2) % 2,
                        "xray": (i // 4) % 2})
        stats = cache.stats()
        assert stats["states"] <= 3
        assert stats["evicted_states"] >= 5

    def test_byte_pressure_evicts_but_stays_correct(self, asia):
        tree = compile_junction_tree(asia)
        # A budget tight enough that fully-propagated states must rotate.
        cache = InferenceCache(tree, max_bytes=4_096, min_overlap=0.0,
                               max_memo=4)
        with FastBNI(asia, mode="seq") as engine:
            for i in range(12):
                evidence = {"smoke": i % 2, "bronc": (i // 2) % 2,
                            "asia": (i // 4) % 2}
                cache.seed(evidence)
                (outcome,) = cache.serve_cases([(evidence, ())])
                assert isinstance(outcome, CacheServed)
                want = engine.infer(evidence)
                for name in asia.variable_names:
                    np.testing.assert_allclose(
                        outcome.result.posteriors[name],
                        want.posteriors[name], atol=1e-12, rtol=0)
        stats = cache.stats()
        assert stats["evicted_states"] >= 1
        assert cache.total_bytes() <= 4_096


# ----------------------------------------------------------------- lazy seeds
def _bench_inputs():
    """``bench/inputs.py`` as a module (it imports its sibling ``config``)."""
    import importlib.util
    import sys
    from pathlib import Path

    bench = Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location(
            "_bench_inputs", bench / "inputs.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclass needs sys.modules
    finally:
        sys.path.remove(str(bench))
        for name in (spec.name, "config"):
            sys.modules.pop(name, None)
    return module


@pytest.fixture
def engine_builds(monkeypatch):
    """Counts ``IncrementalEngine`` clone / update calls from here on."""
    from repro.jt.incremental import IncrementalEngine

    calls = {"clone": 0, "update": 0}

    def counted(name):
        inner = getattr(IncrementalEngine, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return inner(self, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(IncrementalEngine, name, counted(name))
    return calls


class TestLazySeeding:
    """A cold-served case enters tier 1 as its key alone; the state is
    built when a lookup accepts that key — and the LRU order is exactly
    what it was when every seed built one."""

    COLD = [{"smoke": "yes", "asia": "no"}, {"bronc": "yes", "xray": "no"},
            {"dysp": "no", "tub": "yes"}]

    @staticmethod
    def _record(cache, engine, cases):
        cache.record_cold([(case, (), engine.infer(case)) for case in cases])

    def test_record_cold_builds_no_state(self, asia, engine_builds):
        cache = InferenceCache(compile_junction_tree(asia))
        with FastBNI(asia, mode="seq") as engine:
            self._record(cache, engine, self.COLD)
        assert engine_builds == {"clone": 0, "update": 0}
        stats = cache.stats()
        assert (stats["states"], stats["seeded"]) == (3, 3)
        assert stats["memo_entries"] == 3
        assert list(cache._states.values()) == [None, None, None]
        assert list(cache._states) == [cache.evidence_key(case)
                                       for case in self.COLD]

    def test_near_duplicate_materialises_and_matches_cold(self, asia,
                                                          engine_builds):
        cache = InferenceCache(compile_junction_tree(asia))
        near = {"smoke": "yes", "asia": "yes"}
        with FastBNI(asia, mode="seq") as engine:
            self._record(cache, engine, self.COLD)
            (outcome,) = cache.serve_cases([(near, ())])
            want = engine.infer(near)
        assert engine_builds["clone"] == 1  # built now, from the baseline
        assert isinstance(outcome, CacheServed)
        assert (outcome.source, outcome.delta_size) == ("delta", 1)
        for name in asia.variable_names:
            np.testing.assert_allclose(outcome.result.posteriors[name],
                                       want.posteriors[name],
                                       atol=1e-12, rtol=0)
        assert outcome.result.log_evidence == pytest.approx(
            want.log_evidence, abs=1e-12)
        # The accepted key is replaced by the served one, most recent;
        # the other two stay lazy.
        assert list(cache._states) == [
            cache.evidence_key(self.COLD[1]), cache.evidence_key(self.COLD[2]),
            cache.evidence_key(near)]
        assert [s is None for s in cache._states.values()] == [
            True, True, False]

    def test_declined_lookup_only_refreshes_the_key(self, asia, engine_builds):
        cache = InferenceCache(compile_junction_tree(asia))
        with FastBNI(asia, mode="seq") as engine:
            self._record(cache, engine, self.COLD)
        # Shares one variable with COLD[0] and none with the others:
        # overlap 1/3 of the larger set, under the 0.5 threshold.
        probe = {"smoke": "no", "lung": "yes", "either": "yes"}
        (outcome,) = cache.serve_cases([(probe, ())])
        assert outcome is None
        assert engine_builds == {"clone": 0, "update": 0}
        assert cache.stats()["declined"] == 1
        assert list(cache._states) == [
            cache.evidence_key(self.COLD[1]), cache.evidence_key(self.COLD[2]),
            cache.evidence_key(self.COLD[0])]

    def test_cold_walk_matches_the_benchmarks_model(self, engine_builds):
        """``bench/inputs.py::_cold_queries`` predicts, from a model of
        this LRU, which evidence sets the delta tier declines; the real
        cache must agree on every one of them, step by step."""
        from repro import load_network
        from repro.jt.engine import InferenceResult

        inputs = _bench_inputs()
        net = load_network("hailfinder")
        ops = inputs._cold_queries(net, "hailfinder",
                                   np.random.default_rng(20), 200)
        assert len(ops) == 200 and len(ops[0]["evidence"]) == 11
        cache = InferenceCache(compile_junction_tree(net))
        result = InferenceResult(posteriors={}, log_evidence=0.0)
        model: list[dict] = []
        for op in ops:
            evidence = op["evidence"]
            (outcome,) = cache.serve_cases([(evidence, ())])
            assert outcome is None
            cache.record_cold([(evidence, (), result)])
            # The model's walk: refresh the best state, append, cap.
            scores = [inputs._overlap(state, evidence) for state in model]
            if scores:
                best = max(range(len(model)),
                           key=lambda i: (scores[i], i))
                model.append(model.pop(best))
            model.append(evidence)
            del model[:-inputs.CACHE_STATES]
            assert list(cache._states) == [cache.evidence_key(state)
                                           for state in model]
        stats = cache.stats()
        assert (stats["delta_served"], stats["declined"]) == (0, 200)
        assert (stats["seeded"], stats["evicted_states"]) == (200, 192)
        assert engine_builds == {"clone": 0, "update": 0}

    def test_session_state_over_a_lazy_key(self, asia, engine_builds):
        cache = InferenceCache(compile_junction_tree(asia))
        near = {"smoke": "yes", "asia": "yes"}
        with FastBNI(asia, mode="seq") as engine:
            self._record(cache, engine, self.COLD)
            state = cache.session_state(near)
            want = engine.infer(near)
        assert state.evidence == dict(cache.evidence_key(near))
        got = state.infer(near)
        np.testing.assert_allclose(got.posteriors["lung"],
                                   want.posteriors["lung"],
                                   atol=1e-12, rtol=0)
        # The session's clone is its own; the key it looked at stays lazy.
        assert list(cache._states.values()) == [None, None, None]

    def test_total_bytes_with_lazy_keys(self, asia):
        cache = InferenceCache(compile_junction_tree(asia))
        empty = cache.total_bytes()
        with FastBNI(asia, mode="seq") as engine:
            self._record(cache, engine, self.COLD)
            lazy, memo = cache.total_bytes(), cache._memo_bytes
            cache.serve_cases([({"smoke": "yes", "asia": "yes"}, ())])
        # Lazy keys weigh nothing beyond their memoised results; the one
        # a lookup accepted is a state now and is charged as one.
        assert memo > 0 and lazy == empty + memo
        assert cache.total_bytes() > lazy
        assert cache.stats()["bytes"] == cache.total_bytes()

    def test_eviction_counts_unchanged(self, asia, engine_builds):
        """Ten seeds over eight keys at ``max_states=3``: the counts a
        state-building seed produced."""
        cache = InferenceCache(compile_junction_tree(asia), max_states=3)
        for i in range(10):
            cache.seed({"smoke": i % 2, "asia": (i // 2) % 2,
                        "xray": (i // 4) % 2})
        stats = cache.stats()
        assert (stats["states"], stats["seeded"], stats["evicted_states"]) \
            == (3, 10, 7)
        assert engine_builds == {"clone": 0, "update": 0}


# -------------------------------------------------------------- service level
def _make_batcher(**kwargs):
    metrics = ServiceMetrics()
    registry = ModelRegistry(metrics=metrics, **kwargs.pop("registry", {}))
    return MicroBatcher(registry, metrics=metrics, **kwargs), registry


class TestBatcherIntegration:
    def test_repeated_evidence_takes_delta_path_and_matches(self, asia):
        """Acceptance: randomized repeat traffic, delta path == cold 1e-12."""
        base_cases = [c.evidence for c in
                      generate_test_cases(asia, 12, observed_fraction=0.3,
                                          rng=5)]
        # Each case repeats with one finding flipped: high overlap.
        traffic = []
        for case in base_cases:
            traffic.append(case)
            if case:
                name = sorted(case)[0]
                flipped = dict(case)
                flipped[name] = 1 - asia.variable(name).state_index(case[name])
                traffic.append(flipped)

        async def scenario():
            batcher, registry = _make_batcher(max_batch=4)
            try:
                results = []
                for case in traffic:  # sequential: exercises cache reuse
                    results.append(await batcher.submit(
                        "asia", QueryRequest(evidence=case)))
                snap = batcher.metrics.snapshot()
                cache_stats = registry.cache_stats()
            finally:
                await batcher.aclose()
                registry.close()
            return results, snap, cache_stats

        results, snap, cache_stats = run(scenario())
        with FastBNI(asia, mode="seq") as engine:
            for case, got in zip(traffic, results):
                want = engine.infer(case)
                for name in asia.variable_names:
                    np.testing.assert_allclose(got.posteriors[name],
                                               want.posteriors[name],
                                               atol=1e-12, rtol=0)
                assert got.log_evidence == pytest.approx(want.log_evidence,
                                                         abs=1e-12)
        served = snap["incremental"]
        assert served["delta_served"] + served["memo_served"] > 0
        assert cache_stats["models"]["asia"]["seeded"] > 0

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
        assert snap["incremental"]["delta_served"] == 0
        assert snap["incremental"]["memo_served"] == 0


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
        assert near["result"]["served_by"] == "delta"
        np.testing.assert_allclose(repeat["result"]["posteriors"]["lung"],
                                   first["result"]["posteriors"]["lung"])
        body = stats["result"]
        assert body["enabled"] is True
        assert body["served"]["memo_served"] >= 1
        assert body["served"]["delta_served"] >= 1
        assert body["models"]["asia"]["result_hits"] >= 1
