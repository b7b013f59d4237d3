"""Tests for the shared execution layer (repro.exec): plans and kernels."""

import pickle

import numpy as np
import pytest

from repro.bn.datasets import load_dataset
from repro.bn.variable import Variable
from repro.core import FastBNI
from repro.errors import BackendError, EvidenceError
from repro.exec.kernels import (NumpyKernels, gather_absorb,
                                gather_marginalize_batch,
                                get_kernels, ratio_vector,
                                run_message_schedule, triples_to_map)
from repro.exec.plan import EdgeGeometry, compile_plan, stride_triples
from repro.jt.engine import JunctionTreeEngine
from repro.jt.structure import compile_junction_tree
from repro.potential.domain import Domain

DATASETS = ("asia", "cancer", "sprinkler")


@pytest.fixture(scope="module")
def asia():
    return load_dataset("asia")


# ---------------------------------------------------------------------- plans
class TestMessagePlan:
    def test_compile_is_cached_per_tree_and_root(self, asia):
        tree = compile_junction_tree(asia)
        plan = compile_plan(tree)
        assert compile_plan(tree) is plan
        other_root = (tree.root + 1) % tree.num_cliques
        tree.set_root(other_root)
        replanned = compile_plan(tree)
        assert replanned is not plan
        assert replanned.spec.root == other_root

    def test_arena_layout_is_contiguous_and_complete(self, asia):
        plan = compile_plan(compile_junction_tree(asia))
        spec = plan.spec
        off = 0
        for cid, size in enumerate(spec.clique_sizes):
            assert spec.clique_offsets[cid] == off
            off += size
        assert spec.clique_entries == off
        for sid, size in enumerate(spec.sep_sizes):
            assert spec.sep_offsets[sid] == off
            off += size
        assert spec.arena_entries == off
        assert plan.arena_bytes == 8 * off

    def test_fresh_state_matches_tree_state_bitwise(self, asia):
        tree = compile_junction_tree(asia)
        plan = compile_plan(tree)
        arena_state = plan.fresh_state()
        ref_state = tree.fresh_state()
        for a, b in zip(arena_state.clique_pot, ref_state.clique_pot):
            assert np.array_equal(a.values, b.values)
        for a, b in zip(arena_state.sep_pot, ref_state.sep_pot):
            assert np.array_equal(a.values, b.values)

    def test_fresh_state_potentials_view_one_arena(self, asia):
        plan = compile_plan(compile_junction_tree(asia))
        state = plan.fresh_state()
        bases = {p.values.base is not None for p in state.clique_pot}
        assert bases == {True}
        root = state.clique_pot[0].values.base
        assert all(p.values.base is root for p in state.sep_pot)

    def test_fresh_batch_state_rows_match_base(self, asia):
        plan = compile_plan(compile_junction_tree(asia))
        state = plan.fresh_batch_state(3)
        for cid, base in enumerate(plan.base_cliques):
            table = state.clique_pot[cid]
            assert table.shape == (3, base.size)
            assert np.array_equal(table, np.broadcast_to(base, table.shape))
        for table in state.sep_pot:
            assert np.all(table == 1.0)

    def test_spec_is_picklable_and_light(self, asia):
        plan = compile_plan(compile_junction_tree(asia))
        blob = pickle.dumps(plan.spec)
        spec = pickle.loads(blob)
        assert spec.arena_entries == plan.spec.arena_entries
        assert set(spec.edges) == set(plan.spec.edges)
        assert len(blob) < 100_000  # no tree/net/domain objects inside

    def test_engines_share_plan_over_one_tree(self, asia):
        with FastBNI(asia, mode="seq") as a:
            with FastBNI(asia, tree=a.tree, mode="seq") as b:
                assert a.plan is b.plan
                assert a.plan.base_cliques is b.plan.base_cliques

    def test_plan_absorb_and_read_match_generic_paths(self, asia):
        from repro.jt.evidence import absorb_evidence
        from repro.jt.query import all_posteriors

        tree = compile_junction_tree(asia)
        plan = compile_plan(tree)
        evidence = {"smoke": "yes", "xray": "no"}
        s1, s2 = plan.fresh_state(), plan.fresh_state()
        plan.absorb_hard_evidence(s1, evidence)
        absorb_evidence(s2, evidence)
        for a, b in zip(s1.clique_pot, s2.clique_pot):
            assert np.array_equal(a.values, b.values)
        run_message_schedule(plan, s1, get_kernels("numpy"))
        fast = plan.read_posteriors(s1)
        generic = all_posteriors(s1)
        assert set(fast) == set(generic)
        for name in fast:
            np.testing.assert_array_equal(fast[name], generic[name])

    def test_names_become_numbers_in_one_place(self, asia):
        """Targets and evidence are translated once, up front, through the
        plan's per-variable geometry."""
        from repro.errors import EvidenceError, QueryError

        tree = compile_junction_tree(asia)
        plan = compile_plan(tree)
        names = plan.variable_names
        assert names == asia.variable_names
        for vid, (cid, axis, stride, card) in enumerate(plan.spec.variables):
            dom = tree.cliques[cid].domain
            assert cid == tree.smallest_clique_with(names[vid])
            assert (axis, stride, card) == (dom.axis(names[vid]),
                                            dom.stride(names[vid]),
                                            dom.card(names[vid]))
        assert plan.variable_ids() == tuple(range(len(names)))
        lung, smoke = names.index("lung"), names.index("smoke")
        assert plan.variable_ids(("lung", "smoke", "lung")) == (lung, smoke)
        with pytest.raises(QueryError, match="unknown variable 'nope'"):
            plan.variable_ids(("lung", "nope"))
        matrix = plan.evidence_matrix([{"smoke": "no"}, {},
                                       {"lung": 0, "smoke": "yes"}])
        assert matrix.dtype == np.int64 and matrix.shape == (3, len(names))
        assert matrix[:, smoke].tolist() == [1, -1, 0]
        assert matrix[:, lung].tolist() == [-1, -1, 0]
        assert (matrix >= 0).sum() == 3
        with pytest.raises(EvidenceError, match="not in network"):
            plan.evidence_matrix([{}, {"nope": 0}])

    def test_unknown_kernel_backend_rejected(self, asia):
        with pytest.raises(BackendError, match="kernel backend"):
            get_kernels("cuda")
        with pytest.raises(BackendError, match="kernel backend"):
            FastBNI(asia, mode="seq", kernels="cuda")


# ------------------------------------------------------------ kernel defaults
class TestKernelDefaults:
    def test_native_is_the_default_and_numpy_the_only_other(self):
        from repro.core.config import FastBNIConfig
        from repro.exec.kernels import KERNELS

        assert FastBNIConfig().kernels == "native"
        assert KERNELS == ("numpy", "native")

    @pytest.mark.parametrize("kernels", ["numpy", "native"])
    @pytest.mark.parametrize("network", ["hailfinder", "pathfinder"])
    def test_whole_message_engines_build_no_index_map(self, network,
                                                      kernels):
        """Neither backend reads an index map, so a sequential engine
        builds none: not at load, not per case, not per batch."""
        from repro.bn.repository import resolve_network
        from repro.bn.sampling import generate_test_cases
        from repro.core import BatchedFastBNI

        net = resolve_network(network)
        cases = [c.evidence for c in generate_test_cases(net, 40, 0.2, rng=4)]
        with BatchedFastBNI(net, mode="seq", kernels=kernels) as engine:
            engine.prepare_baseline()
            assert engine.plan.stats()["plan_map_entries"] == 0
            engine.infer(cases[0])
            assert engine.plan.stats()["plan_map_entries"] == 0
            assert len(engine.infer_cases(cases)) == 40
            assert engine.plan.stats()["plan_map_entries"] == 0


# ----------------------------------------------------- randomized kernel duels
def _pool(rng, degenerate: bool):
    """An ordered variable pool with random (possibly size-1) cardinalities."""
    cards = rng.integers(1 if degenerate else 2, 5, size=6)
    return [Variable(f"v{i}", tuple(f"s{j}" for j in range(c)))
            for i, c in enumerate(cards)]


def _make_edge(child_vars, parent_vars, sep_vars):
    """Build EdgeGeometry exactly as compile_plan would for this edge."""
    cdom, pdom = Domain(tuple(child_vars)), Domain(tuple(parent_vars))
    sdom = Domain(tuple(sep_vars))
    sep_names = set(sdom.names)
    return EdgeGeometry(
        child=0, parent=1, sep_id=0, sep_size=sdom.size,
        marg_up=stride_triples(cdom, sdom),
        absorb_up=stride_triples(pdom, sdom),
        marg_down=stride_triples(pdom, sdom),
        absorb_down=stride_triples(cdom, sdom),
        child_shape=cdom.shape, parent_shape=pdom.shape,
        up_axes=tuple(i for i, v in enumerate(cdom.variables)
                      if v.name not in sep_names),
        down_axes=tuple(i for i, v in enumerate(pdom.variables)
                        if v.name not in sep_names),
        child_bshape=tuple(v.cardinality if v.name in sep_names else 1
                           for v in cdom.variables),
        parent_bshape=tuple(v.cardinality if v.name in sep_names else 1
                            for v in pdom.variables),
    )


def _random_edge(rng, degenerate: bool):
    pool = _pool(rng, degenerate)
    while True:
        sep_idx = sorted(rng.choice(6, size=rng.integers(1, 4), replace=False))
        extra = [i for i in range(6) if i not in sep_idx]
        child_extra = sorted(rng.choice(extra, size=rng.integers(0, 3),
                                        replace=False)) if extra else []
        parent_extra = sorted(set(extra) - set(child_extra))[:2]
        child_idx = sorted(set(sep_idx) | set(child_extra))
        parent_idx = sorted(set(sep_idx) | set(parent_extra))
        return _make_edge([pool[i] for i in child_idx],
                          [pool[i] for i in parent_idx],
                          [pool[i] for i in sep_idx])


def _message_state(rng, edge, upward):
    """Random (src, dst, sep) respecting the calibration invariant.

    The native backend's unmasked ratio assumes ``old sep == 0`` implies
    ``new marginal == 0`` (zeros only grow during propagation), so the
    generator zeroes the src entries that map onto zeroed sep entries —
    exactly the states real calibration produces.
    """
    src_size = int(np.prod(edge.child_shape if upward else edge.parent_shape))
    dst_size = int(np.prod(edge.parent_shape if upward else edge.child_shape))
    src = rng.random(src_size) + 0.05
    dst = rng.random(dst_size) + 0.05
    sep = rng.random(edge.sep_size) + 0.05
    if edge.sep_size > 1 and rng.random() < 0.5:
        dead = rng.choice(edge.sep_size, size=edge.sep_size // 2, replace=False)
        sep[dead] = 0.0
        marg_t = edge.marg_up if upward else edge.marg_down
        src[np.isin(triples_to_map(src_size, marg_t), dead)] = 0.0
    return src, dst, sep


def _gather_message(src, dst, sep, edge, upward):
    """One message in the index-map formulation (flat maps, bincount
    scatter, fancy-index gather) over ``(k, table)`` rows: the reference
    the N-D-view ``numpy`` backend is pinned against."""
    marg, absorb = edge.triples(upward)
    m_marg = triples_to_map(src.shape[-1], marg)
    m_abs = triples_to_map(dst.shape[-1], absorb)
    new_sep = gather_marginalize_batch(src, m_marg, edge.sep_size)
    totals = new_sep.sum(axis=1)
    new_sep /= totals[:, None]
    for row, (d, s) in enumerate(zip(dst, sep)):
        gather_absorb(d, ratio_vector(new_sep[row], s), m_abs)
    sep[:] = new_sep
    return np.log(totals)


class TestKernelBackendsAgree:
    """The numpy backend agrees with the index-map formulation to 1e-12
    over random geometries."""

    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("upward", [True, False])
    def test_single_case_messages(self, degenerate, upward):
        rng = np.random.default_rng(42 + degenerate)
        numpy_k = NumpyKernels()
        for trial in range(30):
            edge = _random_edge(rng, degenerate)
            src, dst, sep = _message_state(rng, edge, upward)
            d1, s1 = dst.copy(), sep.copy()
            d2, s2 = dst.copy(), sep.copy()
            log1 = numpy_k.message(src.copy(), d1, s1, edge, upward)
            log2, = _gather_message(src[None], d2[None], s2[None], edge,
                                    upward)
            assert log1 == pytest.approx(log2, abs=1e-12), trial
            np.testing.assert_allclose(s1, s2, atol=1e-12, rtol=0)
            np.testing.assert_allclose(d1, d2, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("upward", [True, False])
    def test_batched_messages(self, degenerate, upward):
        rng = np.random.default_rng(7 + degenerate)
        numpy_k = NumpyKernels()
        for trial in range(20):
            edge = _random_edge(rng, degenerate)
            rows = [_message_state(rng, edge, upward) for _ in range(3)]
            src = np.stack([r[0] for r in rows])
            dst = np.stack([r[1] for r in rows])
            sep = np.stack([r[2] for r in rows])
            d1, s1 = dst.copy(), sep.copy()
            d2, s2 = dst.copy(), sep.copy()
            log1 = numpy_k.message_batch(src.copy(), d1, s1, edge, upward)
            log2 = _gather_message(src.copy(), d2, s2, edge, upward)
            np.testing.assert_allclose(log1, log2, atol=1e-12, rtol=0)
            np.testing.assert_allclose(s1, s2, atol=1e-12, rtol=0)
            np.testing.assert_allclose(d1, d2, atol=1e-12, rtol=0)

    def test_separator_equals_clique(self):
        """Degenerate: separator == clique (nothing to sum out)."""
        rng = np.random.default_rng(3)
        pool = _pool(rng, False)
        edge = _make_edge(pool[:3], pool[:4], pool[:3])
        assert edge.up_axes == ()
        src, dst, sep = _message_state(rng, edge, True)
        d1, s1, d2, s2 = dst.copy(), sep.copy(), dst.copy(), sep.copy()
        log1 = NumpyKernels().message(src.copy(), d1, s1, edge, True)
        log2, = _gather_message(src[None], d2[None], s2[None], edge, True)
        assert log1 == pytest.approx(log2, abs=1e-12)
        np.testing.assert_allclose(d1, d2, atol=1e-12, rtol=0)

    def test_size_one_separator(self):
        """Degenerate: all separator variables have cardinality 1."""
        one = Variable("v0", ("only",))
        a, b = Variable("v1", ("x", "y")), Variable("v2", ("p", "q", "r"))
        edge = _make_edge([one, a], [one, b], [one])
        assert edge.sep_size == 1
        rng = np.random.default_rng(5)
        src, dst, sep = _message_state(rng, edge, True)
        d1, s1, d2, s2 = dst.copy(), sep.copy(), dst.copy(), sep.copy()
        log1 = NumpyKernels().message(src.copy(), d1, s1, edge, True)
        log2, = _gather_message(src[None], d2[None], s2[None], edge, True)
        assert log1 == pytest.approx(log2, abs=1e-12)
        np.testing.assert_allclose(d1, d2, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("kernels", ["numpy"])
    def test_empty_message_raises(self, kernels):
        rng = np.random.default_rng(11)
        edge = _random_edge(rng, False)
        src, dst, sep = _message_state(rng, edge, True)
        with pytest.raises(EvidenceError, match="zero probability"):
            get_kernels(kernels).message(np.zeros_like(src), dst, sep,
                                         edge, True)
        batch = np.zeros((2, src.size))
        with pytest.raises(EvidenceError, match="case 5"):
            get_kernels(kernels).message_batch(
                batch, np.stack([dst, dst]), np.stack([sep, sep]),
                edge, True, case_offset=5)


# ----------------------------------------------------- full-schedule agreement
class TestScheduleEquivalence:
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_backends_match_reference_engine(self, request, dataset):
        net = load_dataset(dataset)
        reference = JunctionTreeEngine(net)
        cases = [{}, dict([next(iter({v.name: v.states[0]
                                      for v in net.variables}.items()))])]
        for kernels in ("numpy", "native"):
            with FastBNI(net, mode="seq", kernels=kernels) as engine:
                for case in cases:
                    got = engine.infer(case)
                    want = reference.infer(case)
                    assert got.log_evidence == pytest.approx(
                        want.log_evidence, abs=1e-12)
                    for name in net.variable_names:
                        np.testing.assert_allclose(
                            got.posteriors[name], want.posteriors[name],
                            atol=1e-12, rtol=0)
