"""Cross-engine integration tests: every engine agrees on every posterior.

This is the repo's strongest guarantee: seven independent engine
implementations (reference JT, four baselines, Fast-BNI seq/parallel) must
produce identical posteriors and evidence likelihoods on shared workloads.
"""

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
from repro.bn.repository import load_network
from repro.bn.sampling import generate_test_cases
from repro.core import FastBNI
from repro.jt import JunctionTreeEngine


def all_engines(net):
    return [
        JunctionTreeEngine(net),
        UnBBayesEngine(net),
        ElementEngine(net),
        DirectEngine(net, num_workers=2),
        PrimitiveEngine(net, num_workers=2, min_chunk=8),
        FastBNI(net, mode="seq"),
        FastBNI(net, mode="hybrid", num_workers=4,
                min_chunk=16, parallel_threshold=0),
    ]


def close_all(engines):
    for e in engines:
        close = getattr(e, "close", None)
        if close:
            close()


class TestAgreementSmallNetworks:
    @pytest.mark.parametrize("dataset", ["asia", "cancer", "sprinkler"])
    def test_seven_engines_match_enumeration(self, dataset, request):
        net = request.getfixturevalue(dataset)
        oracle = EnumerationEngine(net)
        engines = all_engines(net)
        try:
            for case in generate_test_cases(net, 6, 0.25, rng=17):
                want = oracle.infer(case.evidence)
                for eng in engines:
                    got = eng.infer(case.evidence)
                    for name in net.variable_names:
                        assert np.allclose(got.posteriors[name],
                                           want.posteriors[name], atol=1e-9), \
                            (dataset, type(eng).__name__, name)
                    assert got.log_evidence == pytest.approx(
                        want.log_evidence, abs=1e-8), type(eng).__name__
        finally:
            close_all(engines)

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_on_random_networks(self, seed):
        net = random_network(13, state_dist=3, avg_parents=1.5, max_in_degree=3,
                             window=5, rng=100 + seed)
        oracle = EnumerationEngine(net)
        engines = all_engines(net)
        try:
            for case in generate_test_cases(net, 4, 0.3, rng=seed):
                want = oracle.infer(case.evidence)
                for eng in engines:
                    got = eng.infer(case.evidence)
                    for name in net.variable_names:
                        assert np.allclose(got.posteriors[name],
                                           want.posteriors[name], atol=1e-9)
        finally:
            close_all(engines)


class TestAgreementMediumNetwork:
    """VE (non-JT code path) as the oracle on a network too big to enumerate."""

    def test_hailfinder_analog(self):
        net = load_network("hailfinder")
        ve = VariableEliminationEngine(net)
        engines = [FastBNI(net, mode="seq"),
                   FastBNI(net, mode="hybrid", num_workers=4)]
        try:
            for case in generate_test_cases(net, 2, 0.2, rng=5):
                want = ve.infer(case.evidence, targets=tuple(net.variable_names[:10]))
                for eng in engines:
                    got = eng.infer(case.evidence)
                    for name in net.variable_names[:10]:
                        assert np.allclose(got.posteriors[name],
                                           want.posteriors[name], atol=1e-8)
        finally:
            close_all(engines)

    def test_pigs_analog_seq_vs_hybrid(self):
        net = load_network("pigs")
        seq = FastBNI(net, mode="seq")
        par = FastBNI(net, mode="hybrid", num_workers=8)
        try:
            case = generate_test_cases(net, 1, 0.2, rng=9)[0]
            a, b = seq.infer(case.evidence), par.infer(case.evidence)
            for name in net.variable_names:
                assert np.allclose(a.posteriors[name], b.posteriors[name], atol=1e-8)
            assert a.log_evidence == pytest.approx(b.log_evidence, abs=1e-6)
        finally:
            close_all([seq, par])
