"""Tests for the four comparison baselines + the VE oracle itself."""

import numpy as np
import pytest

from repro.baselines import (
    DirectEngine,
    ElementEngine,
    EnumerationEngine,
    PrimitiveEngine,
    UnBBayesEngine,
    VariableEliminationEngine,
)
from repro.bn.generators import random_network
from repro.bn.sampling import generate_test_cases
from repro.errors import EvidenceError, NetworkError


def check_against_enumeration(engine, net, num_cases=5, seed=0):
    en = EnumerationEngine(net)
    for case in generate_test_cases(net, num_cases, 0.25, rng=seed):
        got = engine.infer(case.evidence)
        want = en.infer(case.evidence)
        for name in net.variable_names:
            assert np.allclose(got.posteriors[name], want.posteriors[name],
                               atol=1e-9), name
        assert got.log_evidence == pytest.approx(want.log_evidence, abs=1e-8)


class TestUnBBayes:
    def test_asia(self, asia):
        check_against_enumeration(UnBBayesEngine(asia), asia)

    def test_random_net(self, small_random_nets):
        net = small_random_nets[0]
        check_against_enumeration(UnBBayesEngine(net), net, num_cases=3)

    def test_impossible_evidence(self, asia):
        with pytest.raises(EvidenceError):
            UnBBayesEngine(asia).infer({"lung": "yes", "either": "no"})

    def test_unknown_evidence_variable(self, asia):
        with pytest.raises(EvidenceError):
            UnBBayesEngine(asia).infer({"zz": 0})

    def test_no_evidence(self, asia):
        res = UnBBayesEngine(asia).infer({})
        assert res.log_evidence == pytest.approx(0.0, abs=1e-9)


class TestDirect:
    def test_asia_threaded(self, asia):
        with DirectEngine(asia, num_workers=4) as eng:
            check_against_enumeration(eng, asia)

    def test_serial_backend(self, asia):
        with DirectEngine(asia, num_workers=1) as eng:
            check_against_enumeration(eng, asia, num_cases=3)

    def test_uses_first_root(self, asia):
        with DirectEngine(asia) as eng:
            assert eng._engine.tree.root == 0

    def test_name(self, asia):
        with DirectEngine(asia, num_workers=2) as eng:
            assert "direct" in eng.name


class TestPrimitive:
    def test_asia_threaded(self, asia):
        with PrimitiveEngine(asia, num_workers=4, min_chunk=4) as eng:
            check_against_enumeration(eng, asia)

    def test_random_net(self, small_random_nets):
        net = small_random_nets[1]
        with PrimitiveEngine(net, num_workers=2, min_chunk=8) as eng:
            check_against_enumeration(eng, net, num_cases=3, seed=1)

    def test_scratch_buffer_large_enough(self, asia):
        with PrimitiveEngine(asia) as eng:
            assert eng._scratch.size == max(
                c.size for c in eng._engine.tree.cliques)


class TestElement:
    def test_asia(self, asia):
        with ElementEngine(asia) as eng:
            check_against_enumeration(eng, asia)

    def test_random_net(self, small_random_nets):
        net = small_random_nets[2]
        with ElementEngine(net) as eng:
            check_against_enumeration(eng, net, num_cases=3, seed=2)


class TestVariableElimination:
    def test_asia(self, asia):
        check_against_enumeration(VariableEliminationEngine(asia), asia)

    def test_targets(self, asia):
        res = VariableEliminationEngine(asia).infer({"smoke": "yes"}, targets=("lung",))
        assert set(res.posteriors) == {"lung"}

    def test_observed_target_is_point_mass(self, asia):
        res = VariableEliminationEngine(asia).infer({"smoke": "yes"},
                                                    targets=("smoke", "lung"))
        idx = asia.variable("smoke").state_index("yes")
        assert res.posteriors["smoke"][idx] == pytest.approx(1.0)

    def test_impossible_evidence(self, asia):
        with pytest.raises(EvidenceError):
            VariableEliminationEngine(asia).infer({"lung": "yes", "either": "no"})


class TestEnumeration:
    def test_too_large_rejected(self):
        net = random_network(40, state_dist=4, rng=0)
        with pytest.raises(NetworkError):
            EnumerationEngine(net)

    def test_log_evidence_zero_without_evidence(self, asia):
        assert EnumerationEngine(asia).infer({}).log_evidence == pytest.approx(0.0)

    def test_zero_probability_evidence(self, asia):
        with pytest.raises(EvidenceError):
            EnumerationEngine(asia).infer({"lung": "yes", "either": "no"})
