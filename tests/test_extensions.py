"""Tests for the extension features: Shenoy–Shafer, soft evidence,
approximate engines, batched inference, metrics, tree persistence."""

import numpy as np
import pytest

from repro.baselines.approximate import LikelihoodWeightingEngine
from repro.baselines.enumeration import EnumerationEngine
from repro.baselines.shenoy import ShenoyShaferEngine
from repro.bn.generators import random_network
from repro.bn.sampling import generate_test_cases
from repro.core import FastBNI
from repro.errors import EvidenceError, JunctionTreeError
from repro.jt.calibrate import calibrate
from repro.jt.evidence_soft import absorb_soft_evidence, check_soft_evidence
from repro.jt.query import posterior
from repro.jt.serialize import load_tree, save_tree, tree_from_dict, tree_to_dict
from repro.jt.structure import compile_junction_tree


class TestShenoyShafer:
    def test_matches_enumeration(self, asia):
        en = EnumerationEngine(asia)
        ss = ShenoyShaferEngine(asia)
        for case in generate_test_cases(asia, 6, 0.25, rng=3):
            got, want = ss.infer(case.evidence), en.infer(case.evidence)
            for name in asia.variable_names:
                assert np.allclose(got.posteriors[name], want.posteriors[name],
                                   atol=1e-9)
            assert got.log_evidence == pytest.approx(want.log_evidence, abs=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_hugin_on_random_nets(self, seed):
        net = random_network(12, state_dist=3, avg_parents=1.5, max_in_degree=3,
                             window=5, rng=300 + seed)
        ss = ShenoyShaferEngine(net)
        with FastBNI(net, mode="seq") as hugin:
            case = generate_test_cases(net, 1, 0.3, rng=seed)[0]
            a, b = ss.infer(case.evidence), hugin.infer(case.evidence)
            for name in net.variable_names:
                assert np.allclose(a.posteriors[name], b.posteriors[name], atol=1e-9)

    def test_impossible_evidence(self, asia):
        with pytest.raises(EvidenceError):
            ShenoyShaferEngine(asia).infer({"lung": "yes", "either": "no"})


class TestSoftEvidence:
    def _posterior_with_soft(self, net, soft, name):
        tree = compile_junction_tree(net)
        state = tree.fresh_state()
        absorb_soft_evidence(state, soft)
        calibrate(state)
        return posterior(state, name)

    def test_one_hot_equals_hard_evidence(self, asia):
        hard = EnumerationEngine(asia).infer({"smoke": "yes"})
        idx = asia.variable("smoke").state_index("yes")
        vec = np.zeros(2)
        vec[idx] = 1.0
        soft = self._posterior_with_soft(asia, {"smoke": vec}, "lung")
        assert np.allclose(soft, hard.posteriors["lung"], atol=1e-10)

    def test_uniform_likelihood_is_noop(self, asia):
        prior = EnumerationEngine(asia).infer({})
        soft = self._posterior_with_soft(asia, {"smoke": [0.5, 0.5]}, "lung")
        assert np.allclose(soft, prior.posteriors["lung"], atol=1e-10)

    def test_matches_manual_joint_weighting(self, sprinkler):
        """Soft evidence == multiplying the likelihood into the joint."""
        like = np.array([0.9, 0.2])  # noisy wet-grass detector
        got = self._posterior_with_soft(sprinkler, {"WetGrass": like}, "Rain")
        # brute force
        rain = sprinkler.variable("Rain")
        acc = np.zeros(rain.cardinality)
        from repro.potential.domain import Domain

        dom = Domain(sprinkler.variables)
        for assign in dom.assignments():
            p = sprinkler.joint_probability(assign) * like[assign["WetGrass"]]
            acc[assign["Rain"]] += p
        assert np.allclose(got, acc / acc.sum(), atol=1e-10)

    def test_engine_api(self, asia):
        with FastBNI(asia, mode="seq") as engine:
            res = engine.infer(soft_evidence={"xray": [0.8, 0.1]})
            assert np.isclose(res.posteriors["lung"].sum(), 1.0)

    def test_validation_errors(self, asia):
        tree = compile_junction_tree(asia)
        with pytest.raises(EvidenceError):
            check_soft_evidence(tree, {"zz": [0.5, 0.5]})
        with pytest.raises(EvidenceError):
            check_soft_evidence(tree, {"smoke": [0.5]})
        with pytest.raises(EvidenceError):
            check_soft_evidence(tree, {"smoke": [-0.1, 1.0]})
        with pytest.raises(EvidenceError):
            check_soft_evidence(tree, {"smoke": [0.0, 0.0]})


class TestApproximateEngines:
    def test_likelihood_weighting_converges(self, asia):
        exact = EnumerationEngine(asia).infer({"dysp": "yes"})
        lw = LikelihoodWeightingEngine(asia, num_samples=60_000, seed=0)
        got = lw.posterior("lung", {"dysp": "yes"})
        assert np.allclose(got, exact.posteriors["lung"], atol=0.02)

    def test_likelihood_weighting_no_evidence(self, sprinkler):
        exact = EnumerationEngine(sprinkler).infer({})
        lw = LikelihoodWeightingEngine(sprinkler, num_samples=40_000, seed=1)
        got = lw.posterior("Rain")
        assert np.allclose(got, exact.posteriors["Rain"], atol=0.02)

    def test_deterministic_with_seed(self, asia):
        lw = LikelihoodWeightingEngine(asia, num_samples=1000, seed=5)
        a = lw.posterior("lung", {"smoke": "yes"})
        b = LikelihoodWeightingEngine(asia, num_samples=1000, seed=5).posterior(
            "lung", {"smoke": "yes"})
        assert np.array_equal(a, b)

    def test_invalid_params(self, asia):
        with pytest.raises(ValueError):
            LikelihoodWeightingEngine(asia, num_samples=0)


class TestBatchedInference:
    def test_batch_matches_loop(self, asia):
        cases = generate_test_cases(asia, 6, 0.25, rng=4)
        with FastBNI(asia, mode="seq") as engine:
            loop = [engine.infer(c.evidence) for c in cases]
            batch = engine.infer_batch(cases, case_workers=4)
        for a, b in zip(loop, batch):
            for name in asia.variable_names:
                assert np.allclose(a.posteriors[name], b.posteriors[name], atol=1e-12)

    @pytest.mark.parametrize("mode", ["seq", "hybrid"])
    def test_case_workers_infer_each_case_once(self, asia, mode):
        """N cases cost N calibrations: the plan is warmed by compiling its
        message sequence, not by inferring case 0 an extra time."""
        cases = generate_test_cases(asia, 5, 0.25, rng=6)
        with FastBNI(asia, mode=mode, backend="thread", num_workers=2,
                     min_chunk=4, parallel_threshold=0) as engine:
            loop = [engine.infer(c.evidence) for c in cases]
            calibrations = []
            calibrate = engine._calibrate
            engine._calibrate = lambda state: (calibrations.append(1),
                                               calibrate(state))
            batch = engine.infer_batch(cases, case_workers=3)
        assert len(calibrations) == len(cases)
        for a, b in zip(loop, batch):
            assert a.log_evidence == pytest.approx(b.log_evidence, abs=1e-12)
            for name in asia.variable_names:
                assert np.allclose(a.posteriors[name], b.posteriors[name], atol=1e-12)

    def test_case_workers_start_on_a_warm_plan(self, asia):
        """The index maps exist before the first concurrent case reads them."""
        cases = generate_test_cases(asia, 4, 0.25, rng=7)
        with FastBNI(asia, mode="seq") as engine:
            seen = []
            calibrate = engine._calibrate
            engine._calibrate = lambda state: (
                seen.append(engine.stats()["plan_map_entries"]), calibrate(state))
            engine.infer_batch(cases, case_workers=2)
        assert seen and min(seen) == max(seen) > 0

    def test_batch_single_worker(self, asia):
        cases = generate_test_cases(asia, 3, 0.25, rng=5)
        with FastBNI(asia, mode="seq") as engine:
            results = engine.infer_batch(cases)
        assert len(results) == 3

    def test_empty_batch(self, asia):
        with FastBNI(asia, mode="seq") as engine:
            assert engine.infer_batch([]) == []


class TestMetrics:
    def test_seq_never_dispatches(self, asia):
        with FastBNI(asia, mode="seq") as engine:
            engine.infer({})
            assert engine.metrics["dispatch_batches"] == 0
            assert engine.metrics["messages"] == 2 * (engine.tree.num_cliques - 1)

    def test_hybrid_dispatch_bounded_by_layers(self, asia):
        with FastBNI(asia, mode="hybrid", backend="thread", num_workers=2,
                     min_chunk=1, parallel_threshold=0) as engine:
            engine.infer({})
            # ≤ 2 batches per layer pass (marg + absorb).
            layer_passes = (len(engine.schedule.collect_layers())
                            + len(engine.schedule.distribute_layers()))
            assert 0 < engine.metrics["dispatch_batches"] <= 2 * layer_passes

    def test_intra_dispatches_more_than_hybrid(self):
        """The paper's overhead claim, quantified: per-op dispatch (intra)
        must invoke the backend more often than per-layer dispatch (hybrid)."""
        net = random_network(40, state_dist=3, avg_parents=1.6, max_in_degree=3,
                             window=8, rng=77)
        counts = {}
        for mode in ("intra", "hybrid"):
            with FastBNI(net, mode=mode, backend="thread", num_workers=4,
                         min_chunk=1, parallel_threshold=0) as engine:
                engine.infer({})
                counts[mode] = engine.metrics["dispatch_batches"]
        assert counts["intra"] > counts["hybrid"]


class TestTreePersistence:
    def test_roundtrip(self, asia, tmp_path):
        tree = compile_junction_tree(asia)
        tree.set_root(2 % tree.num_cliques)
        path = tmp_path / "asia.jt.json"
        save_tree(tree, path)
        again = load_tree(path, asia)
        assert again.root == tree.root
        assert [c.domain.names for c in again.cliques] == \
            [c.domain.names for c in tree.cliques]
        assert [c.cpt_indices for c in again.cliques] == \
            [c.cpt_indices for c in tree.cliques]

    def test_restored_tree_infers_correctly(self, asia, tmp_path):
        tree = compile_junction_tree(asia)
        path = tmp_path / "t.json"
        save_tree(tree, path)
        restored = load_tree(path, asia)
        state = restored.fresh_state()
        calibrate(state)
        want = EnumerationEngine(asia).infer({})
        assert np.allclose(posterior(state, "lung"), want.posteriors["lung"],
                           atol=1e-10)

    def test_wrong_network_rejected(self, asia, sprinkler, tmp_path):
        tree = compile_junction_tree(asia)
        path = tmp_path / "t.json"
        save_tree(tree, path)
        with pytest.raises(JunctionTreeError):
            load_tree(path, sprinkler)

    def test_bad_version_rejected(self, asia):
        data = tree_to_dict(compile_junction_tree(asia))
        data["version"] = 99
        with pytest.raises(JunctionTreeError, match="version"):
            tree_from_dict(data, asia)

    def test_tampered_assignment_rejected(self, asia):
        data = tree_to_dict(compile_junction_tree(asia))
        data["cliques"][0]["cpts"] = []
        with pytest.raises(JunctionTreeError):
            tree_from_dict(data, asia)
