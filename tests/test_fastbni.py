"""Tests for the FastBNI engine: all modes × backends against the oracle."""

import numpy as np
import pytest

from repro.baselines.enumeration import EnumerationEngine
from repro.bn.generators import chain_network, random_network, star_network
from repro.bn.sampling import generate_test_cases
from repro.core import FastBNI, FastBNIConfig
from repro.errors import BackendError, EvidenceError

MODES = ("seq", "inter", "intra", "hybrid")


class TestConfig:
    def test_defaults(self):
        """Fast-BNI-seq is the default; the worker count alone picks the
        dispatch, so there is no backend option."""
        cfg = FastBNIConfig()
        assert cfg.mode == "seq"
        assert not hasattr(cfg, "backend")
        assert not hasattr(cfg, "chunks_per_worker")

    @pytest.mark.parametrize("bad", [
        dict(mode="warp"),
        dict(kernels="gpu"),
        dict(num_workers=0),
        dict(min_chunk=0),
        dict(parallel_threshold=-1),
    ])
    def test_invalid_config(self, bad):
        with pytest.raises(BackendError):
            FastBNIConfig(**bad)

    def test_config_and_kwargs_mutually_exclusive(self, asia):
        with pytest.raises(BackendError):
            FastBNI(asia, FastBNIConfig(), mode="seq")


class TestCorrectness:
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_enumeration_asia(self, asia, mode):
        en = EnumerationEngine(asia)
        with FastBNI(asia, mode=mode, num_workers=4, min_chunk=4,
                     parallel_threshold=0) as eng:
            for case in generate_test_cases(asia, 8, 0.25, rng=1):
                got = eng.infer(case.evidence)
                want = en.infer(case.evidence)
                for name in asia.variable_names:
                    assert np.allclose(got.posteriors[name],
                                       want.posteriors[name], atol=1e-9)
                assert got.log_evidence == pytest.approx(want.log_evidence, abs=1e-8)

    @pytest.mark.parametrize("mode", ("inter", "intra", "hybrid"))
    def test_serial_backend_matches(self, asia, mode):
        """All parallel schedules degenerate correctly at t=1."""
        en = EnumerationEngine(asia)
        with FastBNI(asia, mode=mode, num_workers=1, min_chunk=4,
                     parallel_threshold=0) as eng:
            for case in generate_test_cases(asia, 5, 0.25, rng=2):
                got = eng.infer(case.evidence)
                want = en.infer(case.evidence)
                for name in asia.variable_names:
                    assert np.allclose(got.posteriors[name],
                                       want.posteriors[name], atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_networks_all_modes_agree(self, seed, small_random_nets):
        net = small_random_nets[seed]
        results = {}
        case = generate_test_cases(net, 1, 0.3, rng=seed)[0]
        for mode in MODES:
            with FastBNI(net, mode=mode, num_workers=4, min_chunk=8,
                         parallel_threshold=0) as eng:
                results[mode] = eng.infer(case.evidence)
        ref = results["seq"]
        for mode in MODES[1:]:
            for name in net.variable_names:
                assert np.allclose(results[mode].posteriors[name],
                                   ref.posteriors[name], atol=1e-9), (mode, name)

    def test_structure_extremes(self):
        """Chain (deep) and star (flat) both calibrate correctly in hybrid."""
        for net in (chain_network(18, rng=0), star_network(17, rng=0)):
            en = EnumerationEngine(net)
            with FastBNI(net, mode="hybrid", num_workers=4,
                         min_chunk=4, parallel_threshold=0) as eng:
                case = generate_test_cases(net, 1, 0.2, rng=1)[0]
                got, want = eng.infer(case.evidence), en.infer(case.evidence)
                for name in net.variable_names:
                    assert np.allclose(got.posteriors[name],
                                       want.posteriors[name], atol=1e-9)

    def test_targets_restrict_output(self, asia):
        with FastBNI(asia, mode="seq") as eng:
            res = eng.infer({}, targets=("lung",))
            assert set(res.posteriors) == {"lung"}

    def test_impossible_evidence_raises(self, asia):
        with FastBNI(asia, mode="hybrid", num_workers=2) as eng:
            with pytest.raises(EvidenceError):
                eng.infer({"lung": "yes", "either": "no"})

    def test_repeated_inference_independent(self, asia):
        """Engine state must fully reset between infer() calls."""
        with FastBNI(asia, mode="hybrid", num_workers=2) as eng:
            r1 = eng.infer({"smoke": "yes"})
            _ = eng.infer({"smoke": "no"})
            r3 = eng.infer({"smoke": "yes"})
            for name in asia.variable_names:
                assert np.allclose(r1.posteriors[name], r3.posteriors[name])


class TestThreadStress:
    @pytest.mark.parametrize("kernels", ("numpy", "native"))
    def test_inter_messages_on_oversubscribed_threads(self, kernels):
        """Inter tasks call the shared kernel backend concurrently: more
        workers than cores, a short switch interval, and every answer —
        log P(e) sums one constant per collect message — must match seq."""
        import sys
        import time

        net = star_network(17, rng=0)  # one wide layer: 16 concurrent messages
        cases = generate_test_cases(net, 6, 0.2, rng=3)
        interval = sys.getswitchinterval()
        try:
            with FastBNI(net, mode="seq", kernels=kernels) as seq, \
                    FastBNI(net, mode="inter", num_workers=8,
                            kernels=kernels) as eng:
                sys.setswitchinterval(1e-5)
                want = [seq.infer(c.evidence) for c in cases]
                deadline = time.monotonic() + 5.0
                rounds = 0
                while rounds < 15 and time.monotonic() < deadline:
                    for case, ref in zip(cases, want):
                        got = eng.infer(case.evidence)
                        assert got.log_evidence == pytest.approx(
                            ref.log_evidence, abs=1e-12)
                        for name in net.variable_names:
                            assert np.allclose(got.posteriors[name],
                                               ref.posteriors[name], atol=1e-12)
                    rounds += 1
                assert rounds >= 1
        finally:
            sys.setswitchinterval(interval)


class TestMaplessPath:
    """Map budget spent: every consumer computes the index mapping on the
    fly — for a chunk that starts mid-table (``lo > 0``), by mixed-radix
    arithmetic over the stride triples."""

    @staticmethod
    def _nets(asia):
        return [asia, random_network(11, state_dist=3, avg_parents=1.5,
                                     max_in_degree=3, window=4, rng=5,
                                     name="mapless11")]

    @pytest.mark.parametrize("backend", ("serial", "thread"))
    @pytest.mark.parametrize("mode", ("inter", "intra", "hybrid"))
    def test_matches_enumeration_without_maps(self, asia, mode, backend,
                                              monkeypatch):
        import repro.exec.kernels as kernels

        chunk_calls = []
        chunk_dst_indices = kernels.chunk_dst_indices

        def spy(lo, hi, triples, imap=None):
            chunk_calls.append((lo, imap is None))
            return chunk_dst_indices(lo, hi, triples, imap)

        monkeypatch.setattr(kernels, "chunk_dst_indices", spy)
        for net in self._nets(asia):
            en = EnumerationEngine(net)
            with FastBNI(net, mode=mode,
                         num_workers=1 if backend == "serial" else 3,
                         min_chunk=2, parallel_threshold=0) as eng:
                eng.plan.MAP_CACHE_LIMIT = 0
                for case in generate_test_cases(net, 4, 0.25, rng=7):
                    got = eng.infer(case.evidence)
                    want = en.infer(case.evidence)
                    for name in net.variable_names:
                        assert np.allclose(got.posteriors[name],
                                           want.posteriors[name], atol=1e-9)
                    assert got.log_evidence == pytest.approx(
                        want.log_evidence, abs=1e-9)
                assert eng.stats()["plan_map_entries"] == 0
                if backend == "thread":
                    # real dispatch: more tasks than batches
                    assert (eng.metrics["dispatch_tasks"]
                            > eng.metrics["dispatch_batches"] > 0)
        if mode != "inter" and backend == "thread":
            assert all(mapless for _, mapless in chunk_calls)
            assert any(lo > 0 for lo, _ in chunk_calls)

    def test_batched_case_blocks_without_maps(self, asia):
        from repro.core import BatchedFastBNI

        for net in self._nets(asia):
            cases = generate_test_cases(net, 5, 0.25, rng=8)
            en = EnumerationEngine(net)
            with BatchedFastBNI(net, mode="hybrid",
                                num_workers=2, kernels="numpy") as eng:
                eng.plan.MAP_CACHE_LIMIT = 0
                batch = eng.infer_cases(cases, min_block=2)
                assert eng.stats()["plan_map_entries"] == 0
                assert eng.metrics["dispatch_tasks"] >= 2
            assert batch.meta["blocks"] >= 2.0
            for i, case in enumerate(cases):
                want = en.infer(case.evidence)
                got = batch.case(i)
                assert got.log_evidence == pytest.approx(want.log_evidence, abs=1e-9)
                for name in net.variable_names:
                    assert np.allclose(got.posteriors[name],
                                       want.posteriors[name], atol=1e-9)


class TestPlansAndCache:
    def test_plan_edges_cover_non_root_cliques(self, asia):
        with FastBNI(asia, mode="seq") as eng:
            expected = set(range(eng.tree.num_cliques)) - {eng.tree.root}
            assert set(eng.plan.spec.edges) == expected

    def test_compiled_layers_are_the_schedule(self, asia):
        """Every mode iterates these tuples: one per message, grouped by
        layer, collect before distribute, flat form the concatenation;
        index maps attached only when asked for."""
        with FastBNI(asia, mode="seq") as eng:
            plan, spec = eng.plan, eng.plan.spec
            layers = plan.compiled_layers(maps=True)
            assert len(layers) == len(spec.up_layers) + len(spec.down_layers)
            assert ([m for layer in layers for m in layer]
                    == plan.compiled_messages(maps=True))
            ups = [all(m[0] for m in layer) for layer in layers]
            assert ups == sorted(ups, reverse=True)  # collect layers first
            for layer in layers:
                for upward, src, dst, sep_id, edge, m_marg, m_abs in layer:
                    assert {src, dst} == {edge.child, edge.parent}
                    assert (src == edge.child) == upward
                    assert sep_id == edge.sep_id
                    assert m_marg.size == spec.clique_sizes[src]
                    assert m_abs.size == spec.clique_sizes[dst]
            assert all(m[5] is None and m[6] is None
                       for m in plan.compiled_messages())

    def test_map_cache_populated_by_parallel_modes(self, asia):
        with FastBNI(asia, mode="hybrid", num_workers=2,
                     min_chunk=1, parallel_threshold=0) as eng:
            eng.infer({})
            assert eng.stats()["plan_map_entries"] > 0  # maps built and cached

    def test_map_cache_respects_limit(self, asia):
        with FastBNI(asia, mode="hybrid", num_workers=2) as eng:
            eng.plan.MAP_CACHE_LIMIT = 0
            assert eng.plan.index_map(0, 0, ()) is None

    def test_cache_hit_returns_same_array(self, asia):
        with FastBNI(asia, mode="hybrid", num_workers=2) as eng:
            cid, edge = next(iter(eng.plan.spec.edges.items()))
            m1 = eng.plan.index_map(cid, edge.sep_id, edge.marg_up)
            m2 = eng.plan.index_map(cid, edge.sep_id, edge.marg_up)
            assert m1 is m2

    def test_stats(self, asia):
        with FastBNI(asia, mode="hybrid", num_workers=3) as eng:
            s = eng.stats()
            assert s["num_workers"] == 3
            assert s["num_layers"] >= 1

    def test_name_includes_mode_and_backend(self, asia):
        with FastBNI(asia, mode="hybrid", num_workers=2) as eng:
            assert "hybrid" in eng.name and "thread" in eng.name
        with FastBNI(asia, mode="seq") as eng:
            assert eng.name == "fastbni-seq"
