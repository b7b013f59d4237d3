"""Tests for sequential calibration, evidence and queries."""

import math

import numpy as np
import pytest

from repro.baselines.enumeration import EnumerationEngine
from repro.bn.generators import random_network
from repro.errors import EvidenceError, QueryError
from repro.jt.calibrate import calibrate, is_calibrated
from repro.jt.evidence import absorb_evidence, check_evidence, evidence_plan
from repro.jt.layers import compute_layers
from repro.jt.query import all_posteriors, joint_posterior, log_evidence, posterior
from repro.jt.root import select_root
from repro.jt.structure import compile_junction_tree
from repro.potential.ops import marginalize


def calibrated_state(net, evidence=None):
    tree = compile_junction_tree(net)
    select_root(tree, "center")
    state = tree.fresh_state()
    if evidence:
        absorb_evidence(state, evidence)
    calibrate(state)
    return state


class TestCalibration:
    def test_separator_invariant(self, asia):
        state = calibrated_state(asia)
        assert is_calibrated(state)

    def test_separator_invariant_with_evidence(self, asia):
        state = calibrated_state(asia, {"xray": "yes", "smoke": "no"})
        assert is_calibrated(state)

    def test_all_cliques_agree_on_shared_variables(self, asia):
        state = calibrated_state(asia, {"dysp": "yes"})
        tree = state.tree
        for name in asia.variable_names:
            dists = []
            for cid in tree.cliques_with(name):
                m = marginalize(state.clique_pot[cid], (name,))
                dists.append(m.values / m.values.sum())
            for d in dists[1:]:
                assert np.allclose(d, dists[0], atol=1e-10)

    @pytest.mark.parametrize("method", ["ndview", "indexmap"])
    def test_methods_give_same_posteriors(self, asia, method):
        tree = compile_junction_tree(asia)
        state = tree.fresh_state()
        absorb_evidence(state, {"smoke": "yes"})
        calibrate(state, method=method)
        ref = EnumerationEngine(asia).infer({"smoke": "yes"})
        for name in asia.variable_names:
            assert np.allclose(posterior(state, name), ref.posteriors[name], atol=1e-10)

    def test_root_choice_does_not_change_posteriors(self, asia):
        ref = None
        tree = compile_junction_tree(asia)
        for root in range(tree.num_cliques):
            tree.set_root(root)
            state = tree.fresh_state()
            absorb_evidence(state, {"dysp": "yes"})
            calibrate(state, compute_layers(tree))
            p = posterior(state, "lung")
            if ref is None:
                ref = p
            else:
                assert np.allclose(p, ref, atol=1e-10)

    def test_log_evidence_matches_enumeration(self, asia):
        ev = {"xray": "yes", "bronc": "no"}
        state = calibrated_state(asia, ev)
        expected = EnumerationEngine(asia).infer(ev).log_evidence
        assert log_evidence(state) == pytest.approx(expected, abs=1e-9)

    def test_no_evidence_log_is_zero(self, asia):
        state = calibrated_state(asia)
        assert log_evidence(state) == pytest.approx(0.0, abs=1e-9)

    def test_impossible_evidence_raises(self, asia):
        # either is a logical OR: lung=yes forces either=yes.
        with pytest.raises(EvidenceError):
            calibrated_state(asia, {"lung": "yes", "either": "no"})


class TestEvidenceHandling:
    def test_check_evidence_normalises_labels(self, asia):
        ev = check_evidence(compile_junction_tree(asia), {"smoke": "yes"})
        assert ev == {"smoke": asia.variable("smoke").state_index("yes")}

    def test_check_evidence_unknown_variable(self, asia):
        with pytest.raises(EvidenceError):
            check_evidence(compile_junction_tree(asia), {"zz": 0})

    def test_check_evidence_unknown_state(self, asia):
        with pytest.raises(Exception):
            check_evidence(compile_junction_tree(asia), {"smoke": "sometimes"})

    def test_plan_uses_cliques_containing_var(self, asia):
        tree = compile_junction_tree(asia)
        plan = evidence_plan(tree, {"smoke": 0, "xray": 1})
        for cid, group in plan.items():
            for name in group:
                assert name in tree.cliques[cid].domain


class TestQueries:
    def test_posterior_normalised(self, asia):
        state = calibrated_state(asia, {"dysp": "yes"})
        for name in asia.variable_names:
            p = posterior(state, name)
            assert p.sum() == pytest.approx(1.0)
            assert (p >= 0).all()

    def test_posterior_of_observed_var_is_point_mass(self, asia):
        state = calibrated_state(asia, {"smoke": "yes"})
        p = posterior(state, "smoke")
        assert p[asia.variable("smoke").state_index("yes")] == pytest.approx(1.0)

    def test_all_posteriors_targets(self, asia):
        state = calibrated_state(asia)
        out = all_posteriors(state, ("lung", "tub"))
        assert set(out) == {"lung", "tub"}

    def test_unknown_variable(self, asia):
        state = calibrated_state(asia)
        with pytest.raises(QueryError):
            posterior(state, "zz")

    def test_joint_posterior_within_clique(self, asia):
        state = calibrated_state(asia, {"xray": "yes"})
        tree = state.tree
        clique = max(tree.cliques, key=lambda c: len(c.domain))
        pair = clique.domain.names[:2]
        joint = joint_posterior(state, pair)
        assert joint.total() == pytest.approx(1.0)
        # Marginal of the joint must match the single-variable posterior.
        m = marginalize(joint, (pair[0],))
        assert np.allclose(m.values, posterior(state, pair[0]), atol=1e-10)

    def test_joint_posterior_outside_clique_rejected(self, asia):
        state = calibrated_state(asia)
        # asia and dysp are at opposite ends — never share a clique.
        with pytest.raises(QueryError):
            joint_posterior(state, ("asia", "dysp"))

    def test_joint_matches_enumeration(self, sprinkler):
        state = calibrated_state(sprinkler, {"WetGrass": "yes"})
        joint = joint_posterior(state, ("Sprinkler", "Rain"))
        en = EnumerationEngine(sprinkler)
        # brute force P(S, R | W=yes)
        total = 0.0
        probs = {}
        for s in ("on", "off"):
            for r in ("yes", "no"):
                p = 0.0
                for c in ("yes", "no"):
                    p += sprinkler.joint_probability(
                        {"Cloudy": c, "Sprinkler": s, "Rain": r, "WetGrass": "yes"})
                probs[(s, r)] = p
                total += p
        for (s, r), p in probs.items():
            assert joint.value({"Sprinkler": s, "Rain": r}) == pytest.approx(p / total)


class TestRandomNetworkCalibration:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration(self, seed):
        net = random_network(11, state_dist=3, avg_parents=1.5, max_in_degree=3,
                             window=5, rng=seed)
        en = EnumerationEngine(net)
        rng = np.random.default_rng(seed)
        from repro.bn.sampling import generate_test_cases

        for case in generate_test_cases(net, 5, 0.3, rng=rng):
            state = calibrated_state(net, case.evidence)
            expected = en.infer(case.evidence)
            for name in net.variable_names:
                assert np.allclose(posterior(state, name),
                                   expected.posteriors[name], atol=1e-9)
            assert log_evidence(state) == pytest.approx(
                expected.log_evidence, abs=1e-8)


#: A's labels are digits in the opposite order to their indices, so an
#: integer read as a label lands on the other state.
_DIGIT_LABELS = """
network digits {
}
variable A {
  type discrete [ 2 ] { 1, 0 };
}
variable B {
  type discrete [ 2 ] { x, y };
}
probability ( A ) {
  table 0.5, 0.5;
}
probability ( B | A ) {
  (1) 0.9, 0.1;
  (0) 0.2, 0.8;
}
"""


class TestIntegerStates:
    """Any integral state but a ``bool`` is an index — ``np.int64(1)`` is
    index 1 as ``1`` is, not the label ``"1"`` — on every kernel backend,
    through ``infer``, ``infer_cases`` and ``evidence_matrix``."""

    INTEGERS = (int, np.int64, np.int32)

    def test_numpy_integers_are_indices_not_labels(self):
        from repro.bn.io_bif import loads
        from repro.core import BatchedFastBNI

        net = loads(_DIGIT_LABELS)
        for kernels in ("numpy", "native"):
            with BatchedFastBNI(net, mode="seq", kernels=kernels) as engine:
                for kind in self.INTEGERS:
                    case = {"A": kind(1)}
                    np.testing.assert_allclose(
                        engine.infer(case).posteriors["B"], [0.2, 0.8],
                        atol=1e-12)
                    np.testing.assert_allclose(
                        engine.infer_cases([{}, case]).case(1).posteriors["B"],
                        [0.2, 0.8], atol=1e-12)
                    assert engine.plan.evidence_matrix([case]).tolist() == [
                        [1, -1]]
                # Labels are still labels, bools still not indices.
                np.testing.assert_allclose(
                    engine.infer({"A": "1"}).posteriors["B"], [0.9, 0.1],
                    atol=1e-12)
                with pytest.raises(EvidenceError, match="unknown state True"):
                    engine.infer({"A": True})

    def test_every_integer_type_gives_one_answer(self, asia):
        from repro.core import BatchedFastBNI

        for kernels in ("numpy", "native"):
            with BatchedFastBNI(asia, mode="seq", kernels=kernels) as engine:
                results = []
                for kind in self.INTEGERS:
                    case = {"smoke": kind(1), "xray": kind(0)}
                    single = engine.infer(case)
                    batch = engine.infer_cases([case, {}]).case(0)
                    for got in (single, batch):
                        results.append(got)
                    assert engine.plan.evidence_matrix([case]).tolist() == (
                        engine.plan.evidence_matrix(
                            [{"smoke": "no", "xray": "yes"}]).tolist())
                for got in results[1:]:
                    assert got.log_evidence == pytest.approx(
                        results[0].log_evidence, abs=1e-12)
                    for name, values in got.posteriors.items():
                        np.testing.assert_allclose(
                            values, results[0].posteriors[name], atol=1e-12)
                with pytest.raises(EvidenceError, match="out of range"):
                    engine.infer({"smoke": np.int64(2)})
