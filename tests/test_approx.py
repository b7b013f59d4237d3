"""Tests for the approximate-inference subsystem (repro.approx).

The oracle structure is layered:

* the vectorised sampler must agree with **exact** junction-tree
  posteriors within 3 reported standard errors at fixed seeds (the
  acceptance criterion of the subsystem);
* the slow per-sample baseline (:mod:`repro.baselines.approximate`) stays
  as an independent oracle: both implementations must land within combined
  tolerance of the same exact values, guarding against shared systematic
  errors in the vectorised rewrite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx import ApproxBNI, sample_population
from repro.approx.engine import ApproxInferenceResult
from repro.baselines.approximate import LikelihoodWeightingEngine
from repro.bn.sampling import TestCase
from repro.core import FastBNI
from repro.errors import BackendError, EvidenceError


def exact_posteriors(net, evidence=None, soft=None):
    with FastBNI(net, mode="seq") as engine:
        return engine.infer(evidence, soft_evidence=soft)


def assert_within_3se(result, exact, floor=5e-4):
    """Every posterior entry within 3 reported SEs (floored) of exact."""
    for name, exact_p in exact.posteriors.items():
        approx_p = result.posteriors[name]
        se = np.maximum(result.stderr[name], floor)
        diff = np.abs(approx_p - exact_p)
        assert np.all(diff <= 3.0 * se), (
            f"{name}: |{approx_p} - {exact_p}| = {diff} > 3*{se}")


BUNDLED_QUERIES = [
    ("asia", {"smoke": "yes"}),
    ("asia", {"xray": "yes", "dysp": "no"}),
    ("cancer", {"Smoker": "True"}),
    ("sprinkler", {}),
]


class TestLikelihoodWeighting:
    @pytest.mark.parametrize("dataset,evidence", BUNDLED_QUERIES)
    def test_matches_exact_within_3se(self, request, dataset, evidence):
        net = request.getfixturevalue(dataset)
        exact = exact_posteriors(net, evidence)
        engine = ApproxBNI(net, num_samples=4096, max_samples=65536,
                           tolerance=0.005, seed=42)
        result = engine.infer(evidence)
        assert_within_3se(result, exact)
        assert result.method == "lw"
        assert 0 < result.ess <= result.num_samples

    def test_soft_evidence_matches_exact(self, asia):
        soft = {"xray": [0.7, 0.3]}
        exact = exact_posteriors(asia, {"smoke": "yes"}, soft=soft)
        engine = ApproxBNI(asia, num_samples=8192, max_samples=65536,
                           tolerance=0.005, seed=1)
        result = engine.infer({"smoke": "yes"}, soft_evidence=soft)
        assert_within_3se(result, exact)
        # The weight-based P(e) estimate should be near the exact one too.
        assert result.log_evidence == pytest.approx(exact.log_evidence,
                                                    abs=0.05)

    def test_log_evidence_estimate(self, asia):
        exact = exact_posteriors(asia, {"smoke": "yes", "bronc": "yes"})
        engine = ApproxBNI(asia, num_samples=16384, max_samples=16384, seed=3)
        result = engine.infer({"smoke": "yes", "bronc": "yes"})
        assert result.log_evidence == pytest.approx(exact.log_evidence,
                                                    abs=0.05)

    def test_stderr_shrinks_with_samples(self, asia):
        small = ApproxBNI(asia, num_samples=256, max_samples=256,
                          seed=5).infer({"smoke": "yes"})
        large = ApproxBNI(asia, num_samples=16384, max_samples=16384,
                          seed=5).infer({"smoke": "yes"})
        assert large.max_stderr() < small.max_stderr()
        assert large.ess > small.ess

    def test_adaptive_escalation_stops_at_tolerance(self, asia):
        engine = ApproxBNI(asia, num_samples=256, max_samples=1 << 20,
                           tolerance=0.02, seed=9)
        result = engine.infer({"smoke": "yes"}, targets=("lung",))
        assert result.max_stderr() <= 0.02
        assert engine.metrics["rounds"] >= 1
        assert result.num_samples < 1 << 20  # stopped well before budget

    def test_budget_respected(self, asia):
        engine = ApproxBNI(asia, num_samples=128, max_samples=512,
                           tolerance=1e-9, seed=9)
        result = engine.infer({"smoke": "yes"})
        assert result.num_samples == 512  # unreachable tolerance: capped

    def test_seeded_runs_reproducible(self, asia):
        a = ApproxBNI(asia, num_samples=1024, max_samples=1024, seed=7)
        b = ApproxBNI(asia, num_samples=1024, max_samples=1024, seed=7)
        ra = a.infer({"smoke": "yes"})
        rb = b.infer({"smoke": "yes"})
        for name in asia.variable_names:
            np.testing.assert_array_equal(ra.posteriors[name],
                                          rb.posteriors[name])

    def test_impossible_evidence_raises(self, sprinkler):
        # P(WetGrass=yes | Sprinkler=off, Rain=no) = 0 in the bundled CPT,
        # so every particle weight is zero and the engine must say so.
        engine = ApproxBNI(sprinkler, num_samples=64, max_samples=128, seed=0)
        with pytest.raises(EvidenceError):
            engine.infer({"Sprinkler": "off", "Rain": "no",
                          "WetGrass": "yes"})

    def test_impossible_evidence_does_not_burn_budget(self, sprinkler):
        """A zero-weight case must fail after a couple of doublings, not
        escalate the shared population all the way to max_samples
        (regression: inf stderr once drove the full 128x escalation)."""
        engine = ApproxBNI(sprinkler, num_samples=64, max_samples=1 << 20,
                           tolerance=0.01, seed=0)
        with pytest.raises(EvidenceError):
            engine.infer({"Sprinkler": "off", "Rain": "no",
                          "WetGrass": "yes"})
        assert engine.metrics["samples"] <= 64 * (
            2 ** engine.DEAD_CASE_ROUNDS)

    def test_deterministic_population_sharing(self, asia):
        """Batched cases share draws: identical cases → identical answers."""
        acc = sample_population(
            asia, 2048,
            [{"smoke": 0}, {"smoke": 0}],
            rng=13,
        )
        np.testing.assert_allclose(acc.posterior("lung")[0],
                                   acc.posterior("lung")[1])


class TestApproxBatch:
    def test_batch_matches_per_case(self, asia):
        """One shared-population pass must agree with exact per case."""
        cases = [{"smoke": "yes"}, {"smoke": "no"},
                 {"xray": "yes"}, {}]
        engine = ApproxBNI(asia, num_samples=8192, max_samples=32768,
                           tolerance=0.005, seed=21)
        results = engine.infer_batch(cases)
        assert len(results) == 4
        for ev, result in zip(cases, results):
            assert_within_3se(result, exact_posteriors(asia, ev))

    def test_mixed_hard_soft_through_infer_batch(self, asia):
        """TestCase batches carrying hard+soft evidence (the satellite)."""
        cases = [
            TestCase(evidence={"smoke": 0},
                     soft_evidence={"xray": [0.7, 0.3]}),
            TestCase(evidence={"bronc": 1}),
            TestCase(evidence={}, soft_evidence={"dysp": [0.2, 0.8]}),
        ]
        engine = ApproxBNI(asia, num_samples=8192, max_samples=32768,
                           tolerance=0.005, seed=23)
        results = engine.infer_batch(cases)
        exacts = [
            exact_posteriors(asia, {"smoke": 0}, soft={"xray": [0.7, 0.3]}),
            exact_posteriors(asia, {"bronc": 1}),
            exact_posteriors(asia, soft={"dysp": [0.2, 0.8]}),
        ]
        for result, exact in zip(results, exacts):
            assert_within_3se(result, exact)

    def test_overlapping_hard_soft_rejected(self, asia):
        engine = ApproxBNI(asia, num_samples=64, max_samples=64, seed=0)
        with pytest.raises(EvidenceError):
            engine.infer({"smoke": "yes"},
                         soft_evidence={"smoke": [0.5, 0.5]})

    def test_unknown_target_rejected(self, asia):
        engine = ApproxBNI(asia, num_samples=64, max_samples=64, seed=0)
        with pytest.raises(EvidenceError):
            engine.infer({}, targets=("nope",))

    def test_posteriors_surface(self, asia):
        """The baseline-engine-style accessors exist and normalise."""
        engine = ApproxBNI(asia, num_samples=2048, max_samples=2048, seed=2)
        post = engine.posteriors(("lung", "bronc"), {"smoke": "yes"})
        assert set(post) == {"lung", "bronc"}
        for p in post.values():
            assert p.sum() == pytest.approx(1.0)
        single = engine.posterior("lung", {"smoke": "yes"})
        np.testing.assert_allclose(single, post["lung"])


class TestEngineConfig:
    def test_bad_method(self, asia):
        """Likelihood weighting is the one sampler: no method to pick."""
        with pytest.raises(TypeError):
            ApproxBNI(asia, method="gibbs")

    def test_bad_sample_counts(self, asia):
        with pytest.raises(BackendError):
            ApproxBNI(asia, num_samples=0)
        with pytest.raises(BackendError):
            ApproxBNI(asia, num_samples=100, max_samples=50)

    def test_bad_tolerance(self, asia):
        with pytest.raises(BackendError):
            ApproxBNI(asia, tolerance=0.0)

    def test_context_manager_and_name(self, asia):
        with ApproxBNI(asia, seed=0) as engine:
            assert engine.name == "approxbni-lw"

    def test_stats_numeric(self, asia):
        stats = ApproxBNI(asia).stats()
        assert all(isinstance(v, float) for v in stats.values())
        assert ApproxBNI(asia).estimate_resident_bytes() > 0


class TestBaselineOracles:
    """The slow per-sample sampler stays as an oracle for the vectorised one."""

    def test_lw_baseline_and_vectorised_agree_with_exact(self, cancer):
        evidence = {"Smoker": "True"}
        exact = exact_posteriors(cancer, evidence)
        baseline = LikelihoodWeightingEngine(cancer, num_samples=20000, seed=5)
        fast = ApproxBNI(cancer, num_samples=16384, max_samples=16384, seed=5)
        fast_result = fast.infer(evidence)
        for name in cancer.variable_names:
            base_p = baseline.posteriors((name,), evidence)[name]
            np.testing.assert_allclose(base_p, exact.posteriors[name],
                                       atol=0.02)
            np.testing.assert_allclose(fast_result.posteriors[name],
                                       exact.posteriors[name], atol=0.02)

    def test_baselines_accept_generator_rng(self, sprinkler):
        """The rng= plumbing satellite: generators thread through as_rng."""
        gen = np.random.default_rng(123)
        engine = LikelihoodWeightingEngine(sprinkler, num_samples=500, rng=gen)
        assert engine.seed is gen
        engine.posterior("Rain")  # consumes the stream without error

    def test_baselines_int_seed_reproducible(self, sprinkler):
        a = LikelihoodWeightingEngine(sprinkler, num_samples=2000, seed=99)
        b = LikelihoodWeightingEngine(sprinkler, num_samples=2000, seed=99)
        np.testing.assert_array_equal(a.posterior("Rain"), b.posterior("Rain"))


class TestResultTypes:
    def test_projecting_keeps_uncertainty(self, asia):
        from repro.service.cache import project

        engine = ApproxBNI(asia, num_samples=512, max_samples=512, seed=1)
        result = engine.infer({"smoke": "yes"})
        narrowed = project(result, ("lung",))
        assert isinstance(narrowed, ApproxInferenceResult)
        assert set(narrowed.posteriors) == {"lung"}
        assert set(narrowed.stderr) == {"lung"}
        assert narrowed.ess == result.ess
