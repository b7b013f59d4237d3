"""Property-based end-to-end tests over random networks and evidence.

hypothesis drives network shape, CPT skew and evidence; the properties are
the fundamental ones: engines agree with each other and with the oracle,
calibration is consistent, and posteriors are proper distributions.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.enumeration import EnumerationEngine
from repro.bn.generators import random_network
from repro.bn.sampling import forward_sample
from repro.core import FastBNI
from repro.jt.calibrate import calibrate, is_calibrated
from repro.jt.evidence import absorb_evidence
from repro.jt.root import select_root
from repro.jt.structure import compile_junction_tree

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def net_and_evidence(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(5, 12))
    skew = draw(st.sampled_from([0.3, 1.0, 3.0]))
    net = random_network(
        n, state_dist=draw(st.sampled_from([2, 3])),
        avg_parents=draw(st.sampled_from([1.0, 1.5, 2.0])),
        max_in_degree=3, window=4, concentration=skew,
        rng=seed, name=f"prop{seed}",
    )
    # Evidence from a forward sample: always positive probability.
    sample = forward_sample(net, seed)
    names = list(net.variable_names)
    k = draw(st.integers(0, max(0, n // 3)))
    observed = draw(st.permutations(names))[:k]
    return net, {name: sample[name] for name in observed}


class TestEndToEndProperties:
    @given(net_and_evidence())
    @SETTINGS
    def test_seq_matches_enumeration(self, pair):
        net, evidence = pair
        with FastBNI(net, mode="seq") as engine:
            got = engine.infer(evidence)
        want = EnumerationEngine(net).infer(evidence)
        for name in net.variable_names:
            assert np.allclose(got.posteriors[name], want.posteriors[name],
                               atol=1e-9)
        assert got.log_evidence == pytest.approx(want.log_evidence, abs=1e-8)

    @given(net_and_evidence())
    @SETTINGS
    def test_hybrid_matches_seq(self, pair):
        net, evidence = pair
        with FastBNI(net, mode="seq") as seq, \
                FastBNI(net, mode="hybrid", num_workers=4,
                        min_chunk=8, parallel_threshold=0) as par:
            a, b = seq.infer(evidence), par.infer(evidence)
        for name in net.variable_names:
            assert np.allclose(a.posteriors[name], b.posteriors[name], atol=1e-9)
        assert a.log_evidence == pytest.approx(b.log_evidence, abs=1e-8)

    @given(net_and_evidence())
    @SETTINGS
    def test_calibration_invariant_holds(self, pair):
        net, evidence = pair
        tree = compile_junction_tree(net)
        select_root(tree, "center")
        state = tree.fresh_state()
        absorb_evidence(state, evidence)
        calibrate(state)
        assert is_calibrated(state, rtol=1e-6)

    @given(net_and_evidence())
    @SETTINGS
    def test_posteriors_are_distributions(self, pair):
        net, evidence = pair
        with FastBNI(net, mode="hybrid", num_workers=1) as engine:
            result = engine.infer(evidence)
        for name, dist in result.posteriors.items():
            assert dist.shape == (net.variable(name).cardinality,)
            assert np.all(dist >= -1e-15)
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert result.log_evidence <= 1e-9  # P(e) <= 1

    @given(net_and_evidence())
    @SETTINGS
    def test_evidence_consistency(self, pair):
        """Observed variables get point-mass posteriors; P(e) decreases as
        evidence grows."""
        net, evidence = pair
        with FastBNI(net, mode="seq") as engine:
            result = engine.infer(evidence)
            for name, state in evidence.items():
                dist = result.posteriors[name]
                assert dist[state] == pytest.approx(1.0, abs=1e-12)
            if evidence:
                # Dropping one observation can only increase likelihood.
                partial = dict(list(evidence.items())[:-1])
                partial_result = engine.infer(partial)
                assert partial_result.log_evidence >= result.log_evidence - 1e-9
