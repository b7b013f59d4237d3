"""Failure-injection tests: corrupt inputs and hostile conditions.

Verifies the library fails loudly and precisely rather than silently
producing wrong posteriors.
"""

import numpy as np
import pytest

from repro.bn.cpt import CPT
from repro.bn.network import BayesianNetwork
from repro.bn.variable import Variable
from repro.core import FastBNI
from repro.errors import (
    CPTError,
    EvidenceError,
    NetworkError,
    PotentialError,
    QueryError,
)
from repro.jt import JunctionTreeEngine
from repro.jt.calibrate import calibrate
from repro.jt.query import posterior
from repro.jt.structure import compile_junction_tree
from repro.potential.domain import Domain
from repro.potential.factor import Potential


class TestCorruptNetworks:
    def test_self_loop(self):
        a = Variable.binary("a")
        net = BayesianNetwork()
        net.add_variable(a)
        with pytest.raises(CPTError):
            net.add_cpt(CPT(a, (a,), np.full((2, 2), 0.5)))

    def test_long_cycle_detected(self):
        vs = [Variable.binary(f"v{i}") for i in range(4)]
        net = BayesianNetwork()
        for v in vs:
            net.add_variable(v)
        for i, v in enumerate(vs):
            net.add_cpt(CPT(v, (vs[(i + 1) % 4],), np.full((2, 2), 0.5)))
        with pytest.raises(NetworkError, match="cycle"):
            net.validate()

    def test_compile_requires_validation(self):
        net = BayesianNetwork()
        net.add_variable(Variable.binary("x"))
        with pytest.raises(NetworkError):
            compile_junction_tree(net)

    def test_almost_normalised_cpt_rejected(self):
        a = Variable.binary("a")
        with pytest.raises(CPTError):
            CPT(a, (), np.array([0.5, 0.5001]))


class TestHostileEvidence:
    def test_unknown_variable(self, asia):
        with FastBNI(asia, mode="seq") as eng:
            with pytest.raises(EvidenceError):
                eng.infer({"ghost": "yes"})

    def test_unknown_state_label(self, asia):
        with FastBNI(asia, mode="seq") as eng:
            with pytest.raises(EvidenceError, match="smoke"):
                eng.infer({"smoke": "perhaps"})

    def test_out_of_range_state_index(self, asia):
        with FastBNI(asia, mode="seq") as eng:
            with pytest.raises(EvidenceError, match="smoke"):
                eng.infer({"smoke": 7})

    def test_contradictory_deterministic_evidence(self, asia):
        """'either' is an OR gate; lung=yes with either=no has P=0."""
        for mode in ("seq", "hybrid"):
            with FastBNI(asia, mode=mode, num_workers=2) as eng:
                with pytest.raises(EvidenceError):
                    eng.infer({"lung": "yes", "either": "no"})

    def test_engine_usable_after_failed_inference(self, asia):
        """A zero-probability case must not poison subsequent calls."""
        with FastBNI(asia, mode="hybrid", num_workers=2) as eng:
            with pytest.raises(EvidenceError):
                eng.infer({"lung": "yes", "either": "no"})
            result = eng.infer({"smoke": "yes"})
            assert np.isfinite(result.log_evidence)


class TestNumericalEdgeCases:
    def test_deterministic_cpts_survive_calibration(self):
        """A chain of deterministic (0/1) CPTs — division by zero territory."""
        a, b, c = (Variable.binary(n) for n in "abc")
        net = BayesianNetwork.from_cpts([
            CPT(a, (), np.array([0.5, 0.5])),
            CPT(b, (a,), np.array([[1.0, 0.0], [0.0, 1.0]])),  # b := a
            CPT(c, (b,), np.array([[1.0, 0.0], [0.0, 1.0]])),  # c := b
        ])
        engine = JunctionTreeEngine(net)
        res = engine.infer({"a": "yes"})
        assert res.posteriors["c"][1] == pytest.approx(1.0)

    def test_extreme_skew_no_underflow(self):
        """Tiny probabilities across a long chain stay finite (scaling)."""
        vs = [Variable.binary(f"v{i}") for i in range(60)]
        cpts = [CPT(vs[0], (), np.array([1e-9, 1 - 1e-9]))]
        for i in range(1, 60):
            cpts.append(CPT(vs[i], (vs[i - 1],),
                            np.array([[1 - 1e-9, 1e-9], [1e-9, 1 - 1e-9]])))
        net = BayesianNetwork.from_cpts(cpts)
        engine = JunctionTreeEngine(net)
        res = engine.infer({"v0": 0})
        assert np.isfinite(res.log_evidence)
        for dist in res.posteriors.values():
            assert np.all(np.isfinite(dist))

    def test_uncalibrated_zero_table_query_fails_loudly(self, asia):
        tree = compile_junction_tree(asia)
        state = tree.fresh_state()
        state.clique_pot[tree.smallest_clique_with("lung")].values[:] = 0.0
        with pytest.raises((QueryError, PotentialError, EvidenceError)):
            calibrate(state)
            posterior(state, "lung")

    def test_empty_domain_potential(self):
        p = Potential(Domain(()))
        assert p.size == 1
        assert p.total() == 1.0
