"""Tests for the batched multi-case calibration engine (repro.core.batch)."""

import numpy as np
import pytest

from repro.baselines.enumeration import EnumerationEngine
from repro.bn.generators import random_network
from repro.bn.sampling import TestCase, generate_test_cases
from repro.core import BatchedFastBNI, FastBNI
from repro.errors import EvidenceError, PotentialError
from repro.exec.kernels import (
    FLAT_BINCOUNT_LIMIT,
    gather_marginalize_batch,
    triples_to_map,
)
from repro.jt.engine import BatchInferenceResult
from repro.parallel.chunking import chunk_cases
from repro.potential.domain import Domain
from repro.potential.factor import Potential
from repro.potential.ops import marginalize, marginalize_batch


def _assert_matches_loop(net, cases, batch, loop, atol=1e-9):
    assert len(batch) == len(loop)
    for i, ref in enumerate(loop):
        got = batch.case(i)
        assert got.log_evidence == pytest.approx(ref.log_evidence, abs=atol)
        for name in ref.posteriors:
            assert np.allclose(got.posteriors[name], ref.posteriors[name],
                               atol=atol), (i, name)


class TestAgreement:
    """Batched results must match per-case FastBNI and the brute-force oracle."""

    @pytest.mark.parametrize("dataset", ["asia", "cancer", "sprinkler"])
    @pytest.mark.parametrize("backend_kwargs", [
        {"mode": "seq"},
        {"mode": "hybrid", "num_workers": 3},
    ])
    def test_matches_per_case_and_oracle(self, request, dataset, backend_kwargs):
        net = request.getfixturevalue(dataset)
        cases = generate_test_cases(net, 7, 0.3, rng=11)
        cases.append(TestCase(evidence={}))
        oracle = EnumerationEngine(net)
        with BatchedFastBNI(net, **backend_kwargs) as engine, \
                FastBNI(net, mode="seq") as seq:
            batch = engine.infer_cases(cases)
            loop = [seq.infer(c.evidence) for c in cases]
        _assert_matches_loop(net, cases, batch, loop)
        for i, case in enumerate(cases):
            truth = oracle.infer(case.evidence)
            got = batch.case(i)
            assert got.log_evidence == pytest.approx(truth.log_evidence, abs=1e-9)
            for name in net.variable_names:
                assert np.allclose(got.posteriors[name],
                                   truth.posteriors[name], atol=1e-9)

    @pytest.mark.parametrize("kernels", ["numpy", "native"])
    def test_thread_backend_dispatches_case_blocks(self, asia, kernels):
        # 32 cases: every native call of asia gets at least one whole
        # 16-case table-major block, so two calls need two blocks.
        cases = generate_test_cases(asia, 32, 0.25, rng=3)
        with BatchedFastBNI(asia, mode="hybrid",
                            num_workers=2, kernels=kernels) as engine, \
                FastBNI(asia, mode="seq") as seq:
            # min_block=2 forces two blocks so real thread dispatch runs
            batch = engine.infer_cases(cases, min_block=2)
            loop = [seq.infer(c.evidence) for c in cases]
            assert engine.metrics["dispatch_tasks"] == 2
        assert batch.meta["blocks"] == 2.0
        _assert_matches_loop(asia, cases, batch, loop)

    def test_targets_restrict_posteriors(self, asia):
        cases = generate_test_cases(asia, 3, 0.25, rng=5)
        with BatchedFastBNI(asia, mode="seq") as engine:
            batch = engine.infer_cases(cases, targets=("lung", "bronc"))
        assert set(batch.posteriors) == {"lung", "bronc"}
        assert batch.posteriors["lung"].shape == (3, 2)


class TestRandomNetworkProperty:
    """Seeded random networks: mixed/empty/impossible evidence per batch."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_batch_matches_oracle(self, seed):
        net = random_network(10 + seed, state_dist=3, avg_parents=1.5,
                             max_in_degree=3, window=4, rng=seed,
                             name=f"batchnet{seed}")
        cases = generate_test_cases(net, 5, 0.3, rng=seed + 100)
        cases.insert(1, TestCase(evidence={}))  # empty-evidence slot mid-batch
        oracle = EnumerationEngine(net)
        with BatchedFastBNI(net, mode="seq") as engine:
            batch = engine.infer_cases(cases)
        for i, case in enumerate(cases):
            truth = oracle.infer(case.evidence)
            got = batch.case(i)
            assert got.log_evidence == pytest.approx(truth.log_evidence, abs=1e-9)
            for name in net.variable_names:
                assert np.allclose(got.posteriors[name],
                                   truth.posteriors[name], atol=1e-9)

    def test_impossible_evidence_reports_case_slot(self, sprinkler):
        impossible = {"Sprinkler": "off", "Rain": "no", "WetGrass": "yes"}
        cases = [{"WetGrass": "yes"}, {}, impossible, {"Rain": "yes"}]
        with BatchedFastBNI(sprinkler, mode="seq") as engine:
            with pytest.raises(EvidenceError, match="case 2"):
                engine.infer_cases(cases)

    def test_impossible_evidence_under_threads(self, sprinkler):
        impossible = {"Sprinkler": "off", "Rain": "no", "WetGrass": "yes"}
        cases = [{}, {}, {}, impossible]
        with BatchedFastBNI(sprinkler, mode="hybrid",
                            num_workers=2) as engine:
            with pytest.raises(EvidenceError, match="case 3"):
                engine.infer_cases(cases, min_block=1)  # two dispatched blocks


class TestBatchEdgeCases:
    def test_single_case_degenerates_to_loop(self, asia):
        case = generate_test_cases(asia, 1, 0.3, rng=9)[0]
        with BatchedFastBNI(asia, mode="seq") as engine, \
                FastBNI(asia, mode="seq") as seq:
            batch = engine.infer_cases([case])
            ref = seq.infer(case.evidence)
        assert len(batch) == 1
        _assert_matches_loop(asia, [case], batch, [ref], atol=1e-12)

    def test_heterogeneous_evidence_sets(self, asia):
        cases = [
            {"smoke": "yes"},
            {"xray": "yes", "dysp": "no"},
            {},
            {"asia": "yes", "smoke": "no", "bronc": "yes"},
        ]
        with BatchedFastBNI(asia, mode="seq") as engine, \
                FastBNI(asia, mode="seq") as seq:
            batch = engine.infer_cases(cases)
            loop = [seq.infer(ev) for ev in cases]
        _assert_matches_loop(asia, cases, batch, loop)

    def test_empty_batch(self, asia):
        with BatchedFastBNI(asia, mode="seq") as engine:
            result = engine.infer_cases([])
            assert len(result) == 0
            assert engine.infer_batch([]) == []

    def test_vectorized_infer_batch_matches_loop(self, asia):
        """``infer_batch`` runs hard cases as one batched calibration."""
        cases = generate_test_cases(asia, 5, 0.25, rng=13)
        with FastBNI(asia, mode="seq") as engine:
            vec = engine.infer_batch(cases)
            assert engine.metrics["batch_cases"] == len(cases)
            loop = [engine.infer(c.evidence) for c in cases]
        for a, b in zip(vec, loop):
            assert a.log_evidence == pytest.approx(b.log_evidence, abs=1e-9)
            for name in asia.variable_names:
                assert np.allclose(a.posteriors[name], b.posteriors[name],
                                   atol=1e-9)

    def test_vectorized_falls_back_on_soft_evidence(self, asia):
        """A soft case runs through per-case ``infer``; the hard cases
        beside it still run batched."""
        cases = [
            TestCase(evidence={"smoke": 0}),
            TestCase(evidence={"smoke": 0}, soft_evidence={"xray": (0.8, 0.1)}),
        ]
        with FastBNI(asia, mode="seq") as engine:
            results = engine.infer_batch(cases)
            assert engine.metrics["batch_cases"] == 1
            ref_soft = engine.infer(evidence={"smoke": 0},
                                    soft_evidence={"xray": (0.8, 0.1)})
            ref_hard = engine.infer(evidence={"smoke": 0})
        assert np.allclose(results[0].posteriors["lung"],
                           ref_hard.posteriors["lung"], atol=1e-12)
        assert np.allclose(results[1].posteriors["lung"],
                           ref_soft.posteriors["lung"], atol=1e-12)

    def test_infer_cases_rejects_soft_evidence(self, asia):
        case = TestCase(evidence={}, soft_evidence={"xray": (0.5, 0.5)})
        with BatchedFastBNI(asia, mode="seq") as engine:
            with pytest.raises(EvidenceError, match="hard evidence"):
                engine.infer_cases([case])

    def test_testcase_rejects_overlapping_soft_and_hard(self):
        with pytest.raises(EvidenceError):
            TestCase(evidence={"a": 0}, soft_evidence={"a": (0.5, 0.5)})


class TestBatchTreeState:
    def test_case_state_rows_match_per_case_state(self, asia):
        """Row i of the batched state evolves exactly as a per-case TreeState."""
        from repro.exec.plan import compile_plan
        from repro.jt.evidence import absorb_evidence
        from repro.jt.structure import compile_junction_tree

        tree = compile_junction_tree(asia)
        cases = [{"smoke": "yes"}, {}, {"xray": "yes", "dysp": "no"}]
        batch = tree.fresh_batch_state(len(cases))
        compile_plan(tree).absorb_evidence_batch(batch, cases)
        for i, evidence in enumerate(cases):
            ref = tree.fresh_state()
            absorb_evidence(ref, evidence)
            view = batch.case_state(i)
            for got, want in zip(view.clique_pot, ref.clique_pot):
                assert np.allclose(got.values, want.values, atol=1e-15)
        # the view shares memory with the batch arrays
        batch.case_state(0).clique_pot[0].values[:] = 7.0
        assert np.all(batch.clique_pot[0][0] == 7.0)

    def test_case_state_bounds(self, asia):
        from repro.errors import JunctionTreeError
        from repro.jt.structure import compile_junction_tree

        batch = compile_junction_tree(asia).fresh_batch_state(2)
        with pytest.raises(JunctionTreeError):
            batch.case_state(2)


class TestBatchResultType:
    def test_iteration_and_indexing(self, asia):
        cases = generate_test_cases(asia, 3, 0.25, rng=21)
        with BatchedFastBNI(asia, mode="seq") as engine:
            batch = engine.infer_cases(cases)
        assert isinstance(batch, BatchInferenceResult)
        materialised = list(batch)
        assert len(materialised) == 3
        assert materialised[1].log_evidence == pytest.approx(
            float(batch.log_evidence[1]))
        with pytest.raises(IndexError):
            batch.case(3)
        assert batch.posterior("lung").shape == (3, 2)


class TestBatchedOps:
    """potential.ops batched primitives: ndview and indexmap must agree."""

    def _domain(self, rng):
        from repro.bn.variable import Variable

        return Domain((Variable("a", ("0", "1", "2")),
                       Variable("b", ("0", "1")),
                       Variable("c", ("0", "1", "2", "3"))))

    def test_marginalize_batch_matches_per_case(self, rng):
        dom = self._domain(rng)
        values = rng.random((6, dom.size))
        for keep in (("a",), ("a", "c"), ("b",), ("a", "b", "c")):
            nd = marginalize_batch(values, dom, keep, method="ndview")
            im = marginalize_batch(values, dom, keep, method="indexmap")
            assert np.allclose(nd, im, atol=1e-12)
            for i in range(6):
                ref = marginalize(Potential(dom, values[i]), keep)
                assert np.allclose(nd[i], ref.values, atol=1e-12)

    def test_marginalize_batch_validates_shape(self, rng):
        dom = self._domain(rng)
        with pytest.raises(PotentialError):
            marginalize_batch(rng.random((2, dom.size + 1)), dom, ("a",))


class TestBatchedGatherKernels:
    """The (k, table) gather marginalization over a row block of a batched
    table."""

    def test_marginalize_batch_rows_match_loop(self, rng):
        triples = ((4, 2, 1), (1, 2, 2))  # src size 8 -> dst size 4
        vals = rng.random((5, 8))
        imap = triples_to_map(8, triples)
        out = gather_marginalize_batch(vals[1:4], imap, 4)
        assert out.shape == (3, 4)
        for row, i in enumerate(range(1, 4)):
            assert np.allclose(out[row],
                               np.bincount(imap, weights=vals[i], minlength=4))

    def test_marginalize_batch_row_loop_fallback(self, rng):
        vals = rng.random((3, 2))
        imap = triples_to_map(2, ((1, 2, 1),))
        out = gather_marginalize_batch(vals, imap, 2, flat_limit=4)
        assert np.allclose(out, vals)  # identity map at these strides
        assert FLAT_BINCOUNT_LIMIT > 4  # the default takes the flat path here


class TestCaseChunking:
    def test_chunk_cases_covers_batch(self):
        blocks = chunk_cases(10, 3)
        assert blocks[0][0] == 0 and blocks[-1][1] == 10
        assert all(lo < hi for lo, hi in blocks)
        joined = [i for lo, hi in blocks for i in range(lo, hi)]
        assert joined == list(range(10))

    def test_chunk_cases_min_block(self):
        assert chunk_cases(4, 8, min_block=4) == [(0, 4)]
        # A native table-major block (16 cases) as the floor: under two
        # blocks stays one call, and the cases over spread evenly.
        assert chunk_cases(31, 2, min_block=16) == [(0, 31)]
        assert chunk_cases(38, 2, min_block=16) == [(0, 19), (19, 38)]
        assert chunk_cases(40, 2, min_block=16) == [(0, 20), (20, 40)]
        assert chunk_cases(49, 3, min_block=16) == [(0, 17), (17, 33),
                                                    (33, 49)]

    def test_chunk_cases_validates(self):
        from repro.errors import BackendError

        with pytest.raises(BackendError):
            chunk_cases(4, 0)
