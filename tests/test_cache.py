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
import gc
import tracemalloc
from array import array

import numpy as np
import pytest

from repro import load_network
from repro.bn.cpt import CPT
from repro.bn.network import BayesianNetwork
from repro.bn.sampling import generate_test_cases
from repro.bn.variable import Variable
from repro.core import BatchedFastBNI, FastBNI
from repro.errors import EvidenceError
from repro.exec.native import native_status
from repro.jt.evidence import check_evidence
from repro.jt.structure import compile_junction_tree
from repro.service import (InferenceServer, MicroBatcher, ModelRegistry,
                           QueryRequest, ServiceMetrics)
from repro.service.cache import InferenceCache


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
        cache = InferenceCache(compile_junction_tree(asia))
        assert (cache.evidence_key({"smoke": "yes", "xray": "no"})
                == cache.evidence_key({"xray": 1, "smoke": 0}))

    def test_unknown_variable_raises(self, asia):
        cache = InferenceCache(compile_junction_tree(asia))
        with pytest.raises(EvidenceError, match="not in network"):
            cache.evidence_key({"nope": 0})

    @pytest.mark.parametrize("evidence", [
        {"smoke": "yes", "xray": "no"},
        {"xray": 1, "smoke": 0},
        {"smoke": np.int64(0), "xray": np.int32(1), "asia": "no"},
        {}])
    def test_key_is_the_packed_checked_pairs(self, asia, evidence):
        """Resolving findings through the plan's table gives the key that
        packing ``check_evidence``'s sorted ``(id, state)`` pairs gives."""
        tree = compile_junction_tree(asia)
        ids = {name: i for i, name in enumerate(asia.variable_names)}
        pairs = sorted((ids[name], state) for name, state in
                       check_evidence(tree, evidence).items())
        packed = array("I", [x for pair in pairs for x in pair]).tobytes()
        assert InferenceCache(tree).evidence_key(evidence) == packed

    @pytest.mark.parametrize("evidence", [
        {"nope": 0}, {"smoke": "maybe"}, {"smoke": 2}, {"smoke": True}])
    def test_bad_findings_raise_the_checks_error(self, asia, evidence):
        tree = compile_junction_tree(asia)
        with pytest.raises(EvidenceError) as want:
            check_evidence(tree, evidence)
        with pytest.raises(EvidenceError) as got:
            InferenceCache(tree).evidence_key(evidence)
        assert str(got.value) == str(want.value)


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


class TestDoorkeeper:
    """``record_cold`` stores a result on its key's second sighting; the
    first leaves a hash, at most ``max_memo`` of them."""

    def test_novel_queries_leave_only_hashes(self, asia):
        cache = InferenceCache(compile_junction_tree(asia), max_memo=4)
        with FastBNI(asia, mode="seq") as engine:
            for i in range(16):
                evidence = {"smoke": i % 2, "bronc": (i // 2) % 2,
                            "asia": (i // 4) % 2}
                targets = ("lung",) if i >= 8 else ()
                cache.record_cold([(evidence, targets,
                                    engine.infer(evidence, targets))])
                stats = cache.stats()
                assert stats["memo_entries"] == 0
                assert stats["doorkeeper_hashes"] == min(i + 1, 4)
        assert stats["bytes"] == cache.total_bytes() > 0
        assert stats["evicted_results"] == 0

    def test_second_sighting_stores_third_hits(self, asia):
        cache = InferenceCache(compile_junction_tree(asia))
        key = cache.evidence_key({"smoke": "yes"})
        with FastBNI(asia, mode="seq") as engine:
            result = engine.infer({"smoke": "yes"}, ("lung",))
            other = engine.infer({"smoke": "yes"}, ("bronc",))
        for sighting in (1, 2):
            assert cache.serve_cases([(key, ("lung",))]) == [None]
            cache.record_cold([({"smoke": "yes"}, ("lung",), result)])
            stats = cache.stats()
            assert (stats["memo_entries"], stats["doorkeeper_hashes"]) == \
                ((0, 1) if sighting == 1 else (1, 0))
        (hit,) = cache.serve_cases([({"smoke": 0}, ("lung",))])
        _assert_same_result(hit, result, ("lung",))
        # Another target list is another key: its own first sighting.
        cache.record_cold([({"smoke": "yes"}, ("bronc",), other)])
        assert cache.stats()["memo_entries"] == 1


class TestServeCases:
    def test_miss_declined_to_cold_path(self, asia):
        cache = InferenceCache(compile_junction_tree(asia))
        with FastBNI(asia, mode="seq") as engine:
            cold = [({"smoke": "yes"}, (), engine.infer({"smoke": "yes"}))]
        cache.record_cold(cold)  # first sighting: a hash, no entry
        assert cache.serve_cases([({"smoke": "yes"}, ("lung",))]) == [None]
        cache.record_cold(cold)
        hit, miss = cache.serve_cases([({"smoke": "yes"}, ("lung",)),
                                       ({"dysp": "yes", "bronc": "no"}, ())])
        assert set(hit.posteriors) == {"lung"} and miss is None
        stats = cache.stats()
        assert (stats["result_hits"], stats["declined"]) == (1, 2)
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
        with FastBNI(asia, mode="seq") as engine:
            # A budget of four entries (and their shared layout) against
            # eight distinct evidence sets: memoised results must rotate.
            sizing, charged = InferenceCache(tree), []
            for name in ("smoke", "bronc"):
                for _ in range(2):  # the second sighting stores it
                    sizing.record_cold([({name: 0}, (),
                                         engine.infer({name: 0}))])
                charged.append(sizing.total_bytes())
            budget = charged[0] + 3 * (charged[1] - charged[0])
            cache = InferenceCache(tree, max_bytes=budget)
            for i in range(12):
                evidence = {"smoke": i % 2, "bronc": (i // 2) % 2,
                            "asia": (i // 4) % 2}
                want = engine.infer(evidence)
                cache.record_cold([(evidence, (), want)] * 2)
                (hit,) = cache.serve_cases([(evidence, ())])
                for name in asia.variable_names:
                    np.testing.assert_allclose(
                        hit.posteriors[name], want.posteriors[name],
                        atol=1e-12, rtol=0)
            assert cache.total_bytes() <= budget
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


# ------------------------------------------------------------------ memo rows
NATIVE_AVAILABLE, NATIVE_REASON = native_status()
#: Both backends' results are copied into a fresh row when memoised.
KERNELS = ["numpy", pytest.param("native", marks=pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason=f"native backend unavailable: {NATIVE_REASON}"))]


@pytest.fixture(scope="module", params=KERNELS)
def analog_engines(request):
    """Calibrated hailfinder and pathfinder engines, shared by the module."""
    engines = {}
    for name in ("hailfinder", "pathfinder"):
        engine = BatchedFastBNI(load_network(name), mode="seq",
                                kernels=request.param)
        engine.prepare_baseline()
        engines[name] = engine
    yield engines
    for engine in engines.values():
        engine.close()


def _analog_cases(engine, count: int, seed: int = 3) -> list[dict]:
    return [c.evidence for c in generate_test_cases(
        engine.net, count, observed_fraction=0.2, rng=seed)]


def _traced_memo_bytes(cache, store) -> int:
    """Bytes still allocated once ``store(memoise)`` has memoised its
    ``(evidence, result)`` pairs and dropped everything else it made."""
    def memoise(evidence, result):
        cache.store_result(cache.evidence_key(evidence), (), result)

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store(memoise)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _assert_same_result(hit, stored, names):
    """``hit`` is ``stored`` (narrowed to ``names``) bit for bit."""
    assert type(hit) is type(stored)
    assert list(hit.posteriors) == list(names)
    for name in names:
        assert hit.posteriors[name].tobytes() == \
            stored.posteriors[name].tobytes()
    assert (np.float64(hit.log_evidence).tobytes()
            == np.float64(stored.log_evidence).tobytes())
    assert hit.meta == {"served_by": "cache"}


class TestMemoRows:
    """One row per entry: what ``total_bytes`` charges is what the memo
    holds, and a hit rebuilds exactly the result that was stored."""

    @pytest.mark.parametrize("network", ["hailfinder", "pathfinder"])
    def test_charged_bytes_match_traced_allocation(self, analog_engines,
                                                   network):
        engine = analog_engines[network]
        cases = _analog_cases(engine, 120)
        block = cases[60:]
        engine.infer(cases[0])  # allocate the engine's scratch first
        engine.infer_cases(block)
        cache = InferenceCache(engine.tree)

        def store(memoise):
            # Half the entries from flushes of one, half out of a 60-case
            # flush block, dropped once its rows are memoised.
            for evidence in cases[:60]:
                memoise(evidence, engine.infer(evidence))
            flushed = engine.infer_cases(block)
            for i, evidence in enumerate(block):
                memoise(evidence, flushed.case(i))

        traced = _traced_memo_bytes(cache, store)
        assert cache.stats()["memo_entries"] == 120
        charged = cache.total_bytes()
        assert 0.75 * traced <= charged <= 1.25 * traced, (charged, traced)

    @pytest.mark.parametrize("network", ["hailfinder", "pathfinder"])
    def test_doorkeeper_charge_matches_traced_allocation(self, analog_engines,
                                                         network):
        """360 cold cases recorded once and 120 of them again: 120 rows
        and 240 doorkeeper hashes, charged within tracemalloc's ±25 %."""
        engine = analog_engines[network]
        cases = _analog_cases(engine, 360, seed=5)
        items = [(evidence, (), engine.infer(evidence)) for evidence in cases]
        cache = InferenceCache(engine.tree)

        def store(memoise):
            cache.record_cold(items)
            cache.record_cold(items[:120])

        traced = _traced_memo_bytes(cache, store)
        stats = cache.stats()
        assert (stats["memo_entries"], stats["doorkeeper_hashes"]) == (120, 240)
        charged = cache.total_bytes()
        assert 0.75 * traced <= charged <= 1.25 * traced, (charged, traced)

    def test_a_block_row_does_not_pin_its_block(self, analog_engines):
        """One case kept out of a 64-case flush holds what the same case
        kept from a flush of one holds, not the block: the memo copies
        every row out."""
        engine = analog_engines["pathfinder"]
        cases = _analog_cases(engine, 64, seed=4)
        engine.infer_cases(cases)
        alone, from_block = (InferenceCache(engine.tree) for _ in range(2))
        held = _traced_memo_bytes(
            alone, lambda memoise: memoise(cases[0], engine.infer(cases[0])))
        traced = _traced_memo_bytes(
            from_block, lambda memoise: memoise(
                cases[0], engine.infer_cases(cases).case(0)))
        assert traced <= 1.25 * held, (traced, held)
        charged = from_block.total_bytes()
        assert 0.75 * traced <= charged <= 1.25 * traced, (charged, traced)

    @pytest.mark.parametrize("kernels", KERNELS)
    @pytest.mark.parametrize("targets", [(), ("bronc", "lung")])
    def test_exact_hits_are_the_stored_result(self, asia, targets, kernels):
        cache = InferenceCache(compile_junction_tree(asia))
        evidence = {"smoke": "yes", "xray": "no"}
        key = cache.evidence_key(evidence)
        with BatchedFastBNI(asia, mode="seq", kernels=kernels) as engine:
            single = engine.infer(evidence, targets)
            from_block = engine.infer_cases([{"asia": "yes"}, evidence],
                                            targets=targets).case(1)
        # Single-case read or a row of a flush block: both are copied.
        for stored in (single, from_block):
            cache.store_result(key, targets, stored)
            hit = cache.lookup_result(key, targets)
            _assert_same_result(hit, stored, tuple(stored.posteriors))
            name = next(iter(stored.posteriors))
            assert not np.shares_memory(hit.posteriors[name],
                                        stored.posteriors[name])
        # A full entry answers a subset query, narrowed in sorted order.
        if not targets:
            hit = cache.lookup_result(key, ("lung", "bronc"))
            _assert_same_result(hit, from_block, ("bronc", "lung"))

    def test_hits_through_the_batcher_are_the_stored_result(self, asia):
        """Sightings 1 and 2 of a key are calibrated; the second is stored,
        and sighting 3, served by the flush's memo pre-pass, carries the
        first answer's bits and ``served_by: cache``, full and subset (a
        subset query is also answered by a stored full entry)."""
        requests = [QueryRequest(evidence={"smoke": "yes"}),
                    QueryRequest(evidence={"smoke": "yes"},
                                 targets=("lung", "bronc")),
                    QueryRequest(evidence={"xray": "no"},
                                 targets=("lung", "bronc"))]

        async def scenario():
            batcher, registry = _make_batcher(max_batch=4)
            try:
                answers = []
                for request in [*requests, *requests, *requests]:
                    answers.append(await batcher.submit("asia", request))
                    await batcher.drain()  # record_cold has run
            finally:
                await batcher.aclose()
                registry.close()
            return answers

        answers = run(scenario())
        first, repeats = answers[:3], answers[6:]
        assert [r.meta.get("served_by") for r in answers] == [
            None, None, None, None, "cache", None, "cache", "cache", "cache"]
        for want, got in zip(first, repeats):
            for name in want.posteriors:
                assert got.posteriors[name].tobytes() == \
                    want.posteriors[name].tobytes()
            assert got.log_evidence == want.log_evidence


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
            traffic += [case, case, case]  # the third sighting hits
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
                second, third = [await batcher.submit(
                    "asia", QueryRequest(evidence={"smoke": "yes"}))
                    for _ in range(2)]
                snap = batcher.metrics.snapshot()
            finally:
                await batcher.aclose()
                registry.close()
            return first, second, third, snap

        first, second, third, snap = run(scenario())
        for name in asia.variable_names:
            np.testing.assert_allclose(first.posteriors[name],
                                       third.posteriors[name], rtol=0)
        assert snap["incremental"]["memo_served"] == 1
        assert second.meta.get("served_by") is None  # stored, not served
        assert third.meta.get("served_by") == "cache"

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

    @pytest.mark.parametrize("kernels", ["native", "numpy"])
    def test_a_cold_query_validates_its_evidence_once(self, monkeypatch,
                                                      kernels):
        """The submit-time key derivation validates a query's evidence
        once; the memo lookup and ``record_cold`` reuse the key.  Label
        findings resolve through the plan's table, so none reaches
        ``check_evidence``, in the key or in the engine."""
        import repro.core.fastbni
        import repro.jt.evidence

        checked, derived = [], []
        real_check = repro.jt.evidence.check_evidence
        real_key = InferenceCache.evidence_key

        def counting(tree, evidence):
            checked.append(dict(evidence))
            return real_check(tree, evidence)

        def deriving(cache, evidence):
            if not isinstance(evidence, bytes):
                derived.append(dict(evidence))
            return real_key(cache, evidence)

        for module in (repro.jt.evidence, repro.core.fastbni):
            monkeypatch.setattr(module, "check_evidence", counting)
        monkeypatch.setattr(InferenceCache, "evidence_key", deriving)
        cases = [{"smoke": "yes"}, {"smoke": "no", "xray": "yes"},
                 {"bronc": "yes"}]

        async def scenario():
            batcher, registry = _make_batcher(
                max_batch=4, registry={"kernels": kernels})
            try:
                registry.get("asia")
                served = []
                for case in [*cases, cases[0], cases[0]]:
                    served.append((await batcher.submit(
                        "asia", QueryRequest(evidence=case))
                    ).meta.get("served_by"))
                    await batcher.drain()  # record_cold has run
            finally:
                await batcher.aclose()
                registry.close()
            return served

        served = run(scenario())
        assert derived == [*cases, cases[0], cases[0]]
        assert checked == []
        assert served == [None, None, None, None, "cache"]

    def test_replacement_between_submit_and_flush_keys_on_the_new_tree(self):
        """The key derived at submit holds on that entry's tree only.  The
        replacement here lists the same states in the other order, so
        the old key of ``coin=yes`` names ``coin=no`` on the new tree: a
        flush that memoised under it would answer the next query wrong."""
        swapped = BayesianNetwork("m")
        coin = Variable("coin", ("yes", "no"))
        swapped.add_variable(coin)
        swapped.add_cpt(CPT(coin, (), np.array([0.5, 0.5])))
        swapped.validate()

        async def scenario():
            batcher, registry = _make_batcher(max_batch=4)
            try:
                registry.register("m", coin_net(0.9))
                registry.get("m")
                first = asyncio.ensure_future(batcher.submit(
                    "m", QueryRequest(evidence={"coin": "yes"})))
                await asyncio.sleep(0)  # validated and queued, not flushed
                registry.register("m", swapped)
                await first
                await batcher.drain()  # record_cold has run
                return await batcher.submit(
                    "m", QueryRequest(evidence={"coin": "no"}))
            finally:
                await batcher.aclose()
                registry.close()

        after = run(scenario())
        assert after.posteriors["coin"][1] == pytest.approx(1.0)

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
                second, repeat = [await ask(
                    {"id": i, "op": "query", "network": "asia",
                     "evidence": {"smoke": "yes"}}) for i in (2, 3)]
                near = await ask({"id": 4, "op": "query", "network": "asia",
                                  "evidence": {"smoke": "no"}})
                stats = await ask({"id": 5, "op": "cache_stats"})
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
            return first, second, repeat, near, stats

        first, second, repeat, near, stats = run(scenario())
        assert all(r["ok"] for r in (first, second, repeat, near))
        assert [r["result"]["served_by"] for r in
                (first, second, repeat, near)] == [
            "batch", "batch", "cache", "batch"]
        np.testing.assert_allclose(repeat["result"]["posteriors"]["lung"],
                                   first["result"]["posteriors"]["lung"])
        body = stats["result"]
        assert body["enabled"] is True
        assert body["served"] == {"memo_served": 1}
        model = body["models"]["asia"]
        assert (model["result_hits"], model["delta_served"],
                model["declined"]) == (1, 0, 3)
        assert (model["memo_entries"], model["doorkeeper_hashes"]) == (1, 1)
