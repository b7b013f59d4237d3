"""Tests for the native C kernel backend (repro.exec.native).

Mirrors the randomized property suite of ``tests/test_exec.py`` with the
native backend duelling the numpy reference at 1e-12, plus the pieces
only this backend has: the compiled-schedule fast path, the whole-case
entry point (one foreign call per case block, traced or not, and what
still keeps a request on the staged path), the Python-side bounds check
of everything C walks, the registry fallback when the toolchain is
missing, a GIL-release witness, and an (aggressively machine-gated)
thread-scaling floor.

Everything that needs a built library is skipped — with the recorded
reason — on machines without a C compiler.
"""

import contextlib
import os
import threading
import time

import numpy as np
import pytest

from repro.bn.datasets import load_dataset
from repro.core import FastBNI
from repro.errors import BackendError, EvidenceError
from repro.exec.kernels import get_kernels, run_message_schedule
from repro.exec.kernels import _INSTANCES as _KERNEL_INSTANCES
from repro.exec.native import (DISABLE_ENV, load_native_kernels,
                               native_status, probe_parallel_headroom)
from repro.exec.native.backend import BLOCK_BYTES, EMPTY_MESSAGE
from repro.exec.native.build import BLOCK, MAX_AXES
from repro.exec.plan import compile_plan
from repro.jt.engine import JunctionTreeEngine
from repro.jt.structure import compile_junction_tree

from tests.test_exec import _make_edge, _message_state, _pool, _random_edge

NATIVE_AVAILABLE, NATIVE_REASON = native_status()
needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason=f"native backend unavailable: {NATIVE_REASON}")

#: Loosens wall-clock floors on slow machines (same knob as test_cluster).
TIME_SLACK = max(1.0, float(os.environ.get("REPRO_TEST_TIME_SLACK", "1.0")))

DATASETS = ("asia", "cancer", "sprinkler")


@pytest.fixture(scope="module")
def native():
    backend, reason = load_native_kernels()
    if backend is None:
        pytest.skip(f"native backend unavailable: {reason}")
    return backend


@pytest.fixture(scope="module")
def numpy_k():
    return get_kernels("numpy")


# -------------------------------------------------- randomized property duels
@needs_native
class TestNativeKernelsAgree:
    """Native and numpy backends agree to 1e-12 over random geometries."""

    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("upward", [True, False])
    def test_single_case_messages(self, native, numpy_k, degenerate, upward):
        rng = np.random.default_rng(42 + degenerate)
        for trial in range(30):
            edge = _random_edge(rng, degenerate)
            src, dst, sep = _message_state(rng, edge, upward)
            d1, s1 = dst.copy(), sep.copy()
            d2, s2 = dst.copy(), sep.copy()
            log1 = numpy_k.message(src.copy(), d1, s1, edge, upward)
            log2 = native.message(src.copy(), d2, s2, edge, upward)
            assert log1 == pytest.approx(log2, abs=1e-12), trial
            np.testing.assert_allclose(s1, s2, atol=1e-12, rtol=0)
            np.testing.assert_allclose(d1, d2, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("upward", [True, False])
    def test_batched_messages(self, native, numpy_k, degenerate, upward):
        """numpy's case-block message against one native message per
        row of the block."""
        rng = np.random.default_rng(7 + degenerate)
        for trial in range(20):
            edge = _random_edge(rng, degenerate)
            rows = [_message_state(rng, edge, upward) for _ in range(3)]
            src = np.stack([r[0] for r in rows])
            dst = np.stack([r[1] for r in rows])
            sep = np.stack([r[2] for r in rows])
            d1, s1 = dst.copy(), sep.copy()
            d2, s2 = dst.copy(), sep.copy()
            log1 = numpy_k.message_batch(src.copy(), d1, s1, edge, upward)
            log2 = [native.message(src[c].copy(), d2[c], s2[c], edge, upward)
                    for c in range(len(src))]
            np.testing.assert_allclose(log1, log2, atol=1e-12, rtol=0)
            np.testing.assert_allclose(s1, s2, atol=1e-12, rtol=0)
            np.testing.assert_allclose(d1, d2, atol=1e-12, rtol=0)

    def test_separator_equals_clique(self, native, numpy_k):
        """Degenerate: separator == clique (nothing to sum out)."""
        rng = np.random.default_rng(3)
        pool = _pool(rng, False)
        edge = _make_edge(pool[:3], pool[:4], pool[:3])
        assert edge.up_axes == ()
        src, dst, sep = _message_state(rng, edge, True)
        d1, s1, d2, s2 = dst.copy(), sep.copy(), dst.copy(), sep.copy()
        log1 = numpy_k.message(src.copy(), d1, s1, edge, True)
        log2 = native.message(src.copy(), d2, s2, edge, True)
        assert log1 == pytest.approx(log2, abs=1e-12)
        np.testing.assert_allclose(d1, d2, atol=1e-12, rtol=0)

    def test_size_one_separator(self, native, numpy_k):
        """Degenerate: all separator variables have cardinality 1."""
        from repro.bn.variable import Variable

        one = Variable("v0", ("only",))
        a, b = Variable("v1", ("x", "y")), Variable("v2", ("p", "q", "r"))
        edge = _make_edge([one, a], [one, b], [one])
        assert edge.sep_size == 1
        rng = np.random.default_rng(5)
        src, dst, sep = _message_state(rng, edge, True)
        d1, s1, d2, s2 = dst.copy(), sep.copy(), dst.copy(), sep.copy()
        log1 = numpy_k.message(src.copy(), d1, s1, edge, True)
        log2 = native.message(src.copy(), d2, s2, edge, True)
        assert log1 == pytest.approx(log2, abs=1e-12)
        np.testing.assert_allclose(d1, d2, atol=1e-12, rtol=0)

    def test_empty_message_raises(self, native):
        rng = np.random.default_rng(11)
        edge = _random_edge(rng, False)
        src, dst, sep = _message_state(rng, edge, True)
        with pytest.raises(EvidenceError, match="zero probability"):
            native.message(np.zeros_like(src), dst, sep, edge, True)

    def test_message_tables_must_match_their_edge(self, native):
        """A single message checks its tables against its edge before C
        walks rows derived from the edge's shapes: sizes, dtype and
        layout."""
        rng = np.random.default_rng(13)
        edge = _random_edge(rng, False)
        src, dst, sep = _message_state(rng, edge, True)
        for args in ((src[:-1], dst, sep), (src, dst, np.ones(sep.size + 1)),
                     (src.astype(np.float32), dst, sep),
                     (src, np.repeat(dst, 2)[::2], sep)):
            with pytest.raises(BackendError, match="their edge's"):
                native.message(*args, edge, True)


# ------------------------------------------------- full-schedule equivalence
@needs_native
class TestNativeSchedule:
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_engine_matches_reference(self, dataset):
        net = load_dataset(dataset)
        reference = JunctionTreeEngine(net)
        cases = [{}, dict([next(iter({v.name: v.states[0]
                                      for v in net.variables}.items()))])]
        with FastBNI(net, mode="seq", kernels="native") as engine:
            assert engine.kernels.name == "native"
            for case in cases:
                got = engine.infer(case)
                want = reference.infer(case)
                assert got.log_evidence == pytest.approx(
                    want.log_evidence, abs=1e-12)
                for name in net.variable_names:
                    np.testing.assert_allclose(
                        got.posteriors[name], want.posteriors[name],
                        atol=1e-12, rtol=0)
            # The compiled-schedule fast path actually engaged.
            assert engine.plan.__dict__.get("_native_schedule") is not None

    def test_impossible_evidence_surfaces_from_compiled_schedule(
            self, native):
        plan = compile_plan(compile_junction_tree(load_dataset("asia")))
        state = plan.fresh_state()
        for pot in state.clique_pot:
            pot.values[:] = 0.0
        with pytest.raises(EvidenceError, match="zero probability"):
            run_message_schedule(plan, state, native)


# --------------------------------------------------- registry and fallback
class TestRegistryFallback:
    def test_unknown_backend_error_enumerates_names(self):
        with pytest.raises(BackendError,
                           match="available backends: fused, native, numpy"):
            get_kernels("cuda")

    def test_cache_key_covers_the_compile_flags(self, monkeypatch, tmp_path):
        """The flags are part of the shared object's cache key, and the
        compile uses the flags the key was made from."""
        from repro.exec.native import build

        compiler = build.find_compiler() or "cc"
        key = build.source_key(compiler)
        monkeypatch.setattr(build, "CFLAGS", ("-O1", "-fPIC", "-shared"))
        assert build.source_key(compiler) != key
        if NATIVE_AVAILABLE:
            monkeypatch.setenv(build.CACHE_ENV, str(tmp_path))
            commands = []
            run = build.subprocess.run
            monkeypatch.setattr(build.subprocess, "run",
                                lambda cmd, **kw: commands.append(cmd)
                                or run(cmd, **kw))
            lib, so_path, reason = build.load_library()
            assert reason is None and lib.fbni_probe_spin(10) >= 0.0
            assert so_path.name == (
                f"fbni_kernels_{build.source_key(compiler)}.so")
            assert commands[0][1:4] == ["-O1", "-fPIC", "-shared"]

    def test_disable_env_forces_fused_fallback(self, monkeypatch, caplog):
        monkeypatch.setenv(DISABLE_ENV, "1")
        _KERNEL_INSTANCES.pop("native", None)
        try:
            available, reason = native_status()
            assert not available and DISABLE_ENV in reason
            with caplog.at_level("WARNING", logger="repro.exec.kernels"):
                backend = get_kernels("native")
            assert backend.name == "fused"
            assert backend is get_kernels("fused")
            assert any("falling back to fused" in r.message
                       for r in caplog.records)
            # The engine still works end to end on the fallback.
            with FastBNI(load_dataset("asia"), mode="seq",
                         kernels="native") as engine:
                assert engine.kernels.name == "fused"
                engine.infer({})
        finally:
            _KERNEL_INSTANCES.pop("native", None)


# ------------------------------------------------------- GIL and scaling
@needs_native
class TestGilRelease:
    def test_foreign_calls_release_the_gil(self, native):
        """A Python counter thread keeps running *during* one long native
        call.  With the GIL held through the call the holder is blocked
        in C and the counter cannot advance at all, so this witness is
        machine-independent (works on a single core)."""
        plan = compile_plan(compile_junction_tree(load_dataset("asia")))
        matrix = np.full((16384, len(plan.variable_names)), -1, dtype=np.int64)
        read_ids = plan.variable_ids()
        native.infer_cases(plan, matrix[:8], read_ids)  # lower the plan, warm
        count = [0]
        stop = threading.Event()

        def ticker():
            while not stop.is_set():
                count[0] += 1

        thread = threading.Thread(target=ticker, daemon=True)
        thread.start()
        best, detail = 0.0, ""
        try:
            time.sleep(0.05)
            # Best of three: a single short window can report 0 when the
            # hypervisor steals the second vCPU for its duration.
            for _ in range(3):
                start_count = count[0]
                start = time.perf_counter()
                assert native.infer_cases(plan, matrix, read_ids) is not None
                elapsed = time.perf_counter() - start
                during = count[0] - start_count
                solo_start = count[0]
                time.sleep(max(elapsed, 0.01))
                solo = count[0] - solo_start
                if solo and during / solo > best:
                    best = during / solo
                detail = (f"counter advanced {during} ticks during a "
                          f"{elapsed * 1e3:.1f}ms native call vs {solo} "
                          "ticks solo")
                if best > 0.05:
                    break
        finally:
            stop.set()
            thread.join()
        assert best > 0.05, (
            f"{detail} — the GIL appears to be held through foreign calls")

    def test_thread_dispatch_scales_where_hardware_allows(self, native):
        """>1.3x at 2 workers — enforced only on machines that can show
        it (4+ cores and a parallel-headroom probe clearing the floor);
        smaller/shared boxes skip with the measured numbers."""
        from repro.core import BatchedFastBNI

        floor = 1.3 / TIME_SLACK
        cores = os.cpu_count() or 1
        if cores < 4:
            pytest.skip(f"only {cores} core(s): 2 workers + dispatcher "
                        "cannot scale here")
        headroom = probe_parallel_headroom(native._lib, threads=2)
        if headroom < 1.35:
            pytest.skip(f"parallel-headroom probe measured {headroom:.2f}x "
                        "on this machine; the floor cannot be expressed")
        asia = load_dataset("asia")
        cases = [{}] * 320

        def timed(engine) -> float:
            start = time.perf_counter()
            engine.infer_cases(cases)
            return time.perf_counter() - start

        with BatchedFastBNI(asia, mode="seq", kernels="native") as one, \
                BatchedFastBNI(asia, mode="hybrid", backend="thread",
                               num_workers=2, kernels="native") as two:
            timed(one); timed(two)  # warm pool and scratch
            serial = parallel = float("inf")
            for _ in range(6):  # interleaved: steal hits both arms alike
                serial = min(serial, timed(one))
                parallel = min(parallel, timed(two))
        scaling = serial / parallel
        assert scaling > floor, (
            f"thread-dispatched case blocks scaled {scaling:.2f}x at 2 "
            f"workers (floor {floor:.2f}x, headroom {headroom:.2f}x)")


# ------------------------------------------------------ whole cases, one call
def _deterministic_net(n_vars: int, seed: int):
    """A random network with about half its CPTs replaced by 0/1 rows, so
    the CPT products have structural zeros."""
    from repro.bn.cpt import CPT
    from repro.bn.generators import random_network
    from repro.bn.network import BayesianNetwork

    rng = np.random.default_rng(seed)
    net = random_network(n_vars, state_dist=3, avg_parents=1.6,
                         max_in_degree=3, window=5, rng=seed,
                         name=f"det{n_vars}_{seed}")
    cpts = []
    for cpt in net.cpts:
        if cpt.parents and rng.random() < 0.5:
            table = np.zeros_like(cpt.table)
            hot = rng.integers(cpt.child.cardinality, size=table.shape[:-1])
            np.put_along_axis(table, hot[..., None], 1.0, axis=-1)
            cpt = CPT(cpt.child, cpt.parents, table)
        cpts.append(cpt)
    return BayesianNetwork.from_cpts(cpts, name=net.name)


def _named_net(name: str):
    """``det<seed>``: ``_deterministic_net(12 + seed, seed)``; any other
    name: the repository network."""
    from repro.bn.repository import resolve_network

    if name.startswith("det"):
        return _deterministic_net(12 + int(name[3:]), int(name[3:]))
    return resolve_network(name)


class _ForeignCalls:
    """Counts every call into the loaded library made through a backend
    (by default the registry's singleton, the one engines resolve)."""

    ENTRY_POINTS = ("_message", "_run_schedule", "_infer_cases")

    def __init__(self, monkeypatch, backend=None):
        if backend is None:
            backend = get_kernels("native")
        self.counts = dict.fromkeys(self.ENTRY_POINTS, 0)
        for attr in self.ENTRY_POINTS:
            monkeypatch.setattr(backend, attr,
                                self._counting(attr, getattr(backend, attr)))

    def _counting(self, attr, fn):
        def call(*args):
            self.counts[attr] += 1
            return fn(*args)
        return call

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _assert_same(got, want, names, atol=1e-12):
    assert got.log_evidence == pytest.approx(want.log_evidence, abs=atol)
    assert list(got.posteriors) == list(names)
    for name in names:
        np.testing.assert_allclose(got.posteriors[name], want.posteriors[name],
                                   atol=atol, rtol=0)


def _impossible_case(net):
    """Evidence a deterministic CPT gives probability zero."""
    for cpt in net.cpts:
        zeros = np.argwhere(cpt.table == 0.0)
        if cpt.parents and len(zeros):
            *config, state = (int(i) for i in zeros[0])
            return {**{p.name: s for p, s in zip(cpt.parents, config)},
                    cpt.child.name: state}
    return None


def _whole_cases_agree(net, fraction: float, n: int, seed: int) -> None:
    """The whole-case property: ``n`` cases observing ``fraction`` of
    ``net`` get the staged numpy path's answers from the one-call native
    path — as a batch and one by one, posteriors and log P(e) at 1e-12 —
    and an impossible case among them is named with the same text."""
    from repro.bn.sampling import generate_test_cases
    from repro.core import BatchedFastBNI

    cases = [c.evidence for c in
             generate_test_cases(net, n, fraction, rng=seed + 50)]
    names = net.variable_names
    with BatchedFastBNI(net, mode="seq", kernels="native") as fast, \
            BatchedFastBNI(net, mode="seq", kernels="numpy") as staged:
        batch, ref = fast.infer_cases(cases), staged.infer_cases(cases)
        for i, case in enumerate(cases):
            _assert_same(batch.case(i), ref.case(i), names)
            _assert_same(fast.infer(case), staged.infer(case), names)
        impossible = _impossible_case(net)
        if impossible is not None:
            texts = []
            for engine in (fast, staged):
                with pytest.raises(EvidenceError, match=r"in case 1$") as err:
                    engine.infer_cases([cases[0], impossible, *cases[1:]])
                texts.append(str(err.value))
            assert texts[0] == texts[1]


def _poisoned_scratch_agrees(net, seed: int) -> None:
    """Whole cases with the case arena, message scratch and (once a
    full block has run) the block arena and its scratch filled with NaN
    before every call still get the staged numpy path's answers: what a
    case reads before writing it comes from the calibrated prior, never
    from an arena entry it has not written.  All reads and restricted
    targets; nothing, some or everything observed; calls below and above
    ``BLOCK`` cases; impossible evidence named as before."""
    from repro.bn.sampling import generate_test_cases
    from repro.core import BatchedFastBNI

    backend = get_kernels("native")
    call = backend._infer_cases

    def poisoned(*args):
        for scratch in (*backend._local.case[1][:2],
                        *getattr(backend._local, "block", ())):
            scratch.fill(np.nan)
        return call(*args)

    backend._infer_cases = poisoned
    try:
        names = net.variable_names
        rng = np.random.default_rng(seed)
        with BatchedFastBNI(net, mode="seq", kernels="native") as fast, \
                BatchedFastBNI(net, mode="seq", kernels="numpy") as staged:
            for fraction, n in ((0.0, 3), (0.2, 3), (1.0, 3),
                                (0.2, BLOCK + 3)):
                cases = [c.evidence for c in
                         generate_test_cases(net, n, fraction, rng=rng)]
                for targets in ((), tuple(rng.choice(names, size=3))):
                    keys = tuple(dict.fromkeys(targets)) or names
                    got = fast.infer_cases(cases, targets)
                    want = staged.infer_cases(cases, targets)
                    for i, case in enumerate(cases):
                        _assert_same(got.case(i), want.case(i), keys)
                        _assert_same(fast.infer(case, targets),
                                     staged.infer(case, targets), keys)
            impossible = _impossible_case(net)
            if impossible is not None:
                with pytest.raises(EvidenceError, match=r"in case 1$"):
                    fast.infer_cases([{}, impossible])
                with pytest.raises(EvidenceError, match=r"in case 5$"):
                    fast.infer_cases([{}] * 5 + [impossible] * 13)
    finally:
        backend._infer_cases = call


@contextlib.contextmanager
def _case_major():
    """Every whole-case call case-major: no plan's block arena fits a
    zero budget."""
    import repro.exec.native.backend as native_backend

    saved = native_backend.BLOCK_BYTES
    native_backend.BLOCK_BYTES = 0
    try:
        yield
    finally:
        native_backend.BLOCK_BYTES = saved


def _block_cases_agree(net, fraction: float, seed: int) -> None:
    """A call of two full table-major blocks and a remainder gets the
    case-major call's answers and the staged numpy path's, posteriors and
    log P(e) at 1e-12, over every variable and a target subset; the
    blocks ran every message for each of their cases, the remainder only
    the messages it needs."""
    from repro.bn.sampling import generate_test_cases
    from repro.core import BatchedFastBNI

    n = 2 * BLOCK + 5
    cases = [c.evidence for c in
             generate_test_cases(net, n, fraction, rng=seed + 70)]
    names = net.variable_names
    rng = np.random.default_rng(seed)
    with BatchedFastBNI(net, mode="seq", kernels="native") as fast, \
            BatchedFastBNI(net, mode="seq", kernels="numpy") as staged:
        assert BLOCK * fast.plan.arena_bytes <= BLOCK_BYTES
        messages = fast.plan.spec.num_messages
        for targets in ((), tuple(rng.choice(names, size=3))):
            keys = tuple(dict.fromkeys(targets)) or names
            fast.infer_cases(cases[2 * BLOCK:], targets)
            rest = fast.metrics["messages_run"]
            blocked = fast.infer_cases(cases, targets)
            assert fast.metrics["messages_run"] == (2 * BLOCK * messages
                                                    + rest)
            with _case_major():
                single = fast.infer_cases(cases, targets)
            ref = staged.infer_cases(cases, targets)
            for i in range(n):
                _assert_same(blocked.case(i), single.case(i), keys)
                _assert_same(blocked.case(i), ref.case(i), keys)


def _block_errors_name_the_lowest_case(net) -> None:
    """Impossible cases in a call of more than ``BLOCK`` cases -- in the
    first block, first in a block, mid-block, in the remainder, two in
    one call -- name the lowest of them with the case-major call's text
    and the staged numpy path's."""
    from repro.bn.sampling import generate_test_cases
    from repro.core import BatchedFastBNI

    impossible = _impossible_case(net)
    assert impossible is not None
    cases = [c.evidence for c in
             generate_test_cases(net, 2 * BLOCK + 5, 0.1, rng=11)]
    with BatchedFastBNI(net, mode="seq", kernels="native") as fast, \
            BatchedFastBNI(net, mode="seq", kernels="numpy") as staged:
        for where in ((1,), (BLOCK,), (BLOCK + 5,), (2 * BLOCK + 2,),
                      (BLOCK + 9, BLOCK + 3), (2 * BLOCK + 4, BLOCK + 1)):
            bad = [impossible if i in where else case
                   for i, case in enumerate(cases)]
            texts = []
            for engine, mode in ((fast, contextlib.nullcontext()),
                                 (fast, _case_major()),
                                 (staged, contextlib.nullcontext())):
                with mode, pytest.raises(EvidenceError) as err:
                    engine.infer_cases(bad)
                texts.append(str(err.value))
            assert texts == [f"{EMPTY_MESSAGE} in case {min(where)}"] * 3


@needs_native
class TestWholeCases:
    """``fbni_infer_cases``: evidence, schedule, reads and log P(e) in one
    foreign call, against the staged numpy path."""

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_observed_fractions_match_staged(self, native, seed, fraction):
        _whole_cases_agree(_deterministic_net(12 + seed, seed), fraction,
                           n=6, seed=seed)

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 1.0])
    def test_hailfinder_fractions_match_staged(self, native, fraction):
        from repro.bn.repository import resolve_network

        _whole_cases_agree(resolve_network("hailfinder"), fraction,
                           n=4, seed=7)

    @pytest.mark.parametrize("name", ["det0", "det1", "det2",
                                      "hailfinder", "pathfinder"])
    def test_walked_entries_are_the_free_entries_of_the_messages_run(
            self, native, name):
        """``engine.metrics`` after a whole-case call: the messages run
        walked exactly the clique entries their evidence leaves free (a
        table's size over the cardinalities its observed variables pin,
        source and destination), the full schedule's dense count is
        unchanged, and a case observing nothing runs no message at all,
        its answers being the calibrated prior's."""
        from repro.bn.sampling import generate_test_cases
        from repro.core import BatchedFastBNI

        net = _named_net(name)
        with BatchedFastBNI(net, mode="seq", kernels="native") as engine:
            plan, spec = engine.plan, engine.plan.spec
            messages = [(src, dst) for _, src, dst, *_ in
                        plan.compiled_messages(maps=False)]
            dense = sum(spec.clique_sizes[c] for m in messages for c in m)

            def free(cid: int, row) -> int:
                pinned = [spec.variables[v][3] for v in spec.clique_vars[cid]
                          if row[v] >= 0]
                return spec.clique_sizes[cid] // int(np.prod(pinned))

            totals = np.zeros(3, dtype=np.int64)
            cases = [c.evidence for fraction in (0.0, 0.1, 0.5, 1.0)
                     for c in generate_test_cases(net, 3, fraction, rng=9)]
            names = net.variable_names
            for i, (case, row) in enumerate(zip(cases,
                                                plan.evidence_matrix(cases))):
                targets = () if i % 2 else (names[i], names[-1])
                engine.infer(case, targets)
                run, _ = _messages_run(plan, row,
                                       plan.variable_ids(targets))
                walked = sum(free(c, row) for m in run for c in m)
                assert engine.metrics["entries_walked"] == walked
                assert engine.metrics["entries_dense"] == dense
                assert engine.metrics["messages_run"] == len(run)
                if not case:
                    assert walked == len(run) == 0
                totals += (walked, dense, len(run))
            engine.infer_cases(cases[1::2])
            odd = np.zeros(3, dtype=np.int64)
            for case, row in zip(cases[1::2],
                                 plan.evidence_matrix(cases[1::2])):
                run, _ = _messages_run(plan, row, plan.variable_ids())
                odd += (sum(free(c, row) for m in run for c in m), dense,
                        len(run))
            assert (engine.metrics["entries_walked"],
                    engine.metrics["entries_dense"],
                    engine.metrics["messages_run"]) == tuple(odd)
            assert totals[0] < totals[1]
            # A full table-major block walks every message dense for each
            # of its cases; the cases left over, and every case of a plan
            # whose block arena is over budget, stay case-major.
            blocked = BLOCK if name != "pathfinder" else 0
            assert (BLOCK * plan.arena_bytes <= BLOCK_BYTES) == bool(blocked)
            more = cases + cases[:BLOCK - 3]
            engine.infer_cases(more)
            want = np.zeros(3, dtype=np.int64)
            for i, row in enumerate(plan.evidence_matrix(more)):
                if i < blocked:
                    want += (dense, dense, len(messages))
                    continue
                run, _ = _messages_run(plan, row, plan.variable_ids())
                want += (sum(free(c, row) for m in run for c in m), dense,
                         len(run))
            assert (engine.metrics["entries_walked"],
                    engine.metrics["entries_dense"],
                    engine.metrics["messages_run"]) == tuple(want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_walked_entries_never_exceed_either_list_alone(self, native,
                                                           seed):
        """``engine.metrics`` after a whole-case call: the clique entries
        the messages walked are no more than the base tables' nonzero
        entries alone, or the evidence alone, would leave over the whole
        schedule — and a case observing nothing runs no message at all,
        its answers being the calibrated prior's."""
        from repro.bn.sampling import generate_test_cases
        from repro.core import BatchedFastBNI

        net = _deterministic_net(12 + seed, seed)
        with BatchedFastBNI(net, mode="seq", kernels="native") as engine:
            plan, spec = engine.plan, engine.plan.spec
            messages = [(src, dst) for _, src, dst, *_ in
                        plan.compiled_messages()]
            nonzero = [int(np.count_nonzero(base))
                       for base in plan.base_cliques]
            dense = sum(spec.clique_sizes[c] for m in messages for c in m)
            static = sum(nonzero[c] for m in messages for c in m)

            def consistent(cid: int, row) -> int:
                pinned = [spec.variables[v][3] for v in spec.clique_vars[cid]
                          if row[v] >= 0]
                return spec.clique_sizes[cid] // int(np.prod(pinned))

            totals = np.zeros(2, dtype=np.int64)
            cases = [c.evidence for fraction in (0.0, 0.1, 0.5, 1.0)
                     for c in generate_test_cases(net, 3, fraction,
                                                  rng=seed + 9)]
            for case, row in zip(cases, plan.evidence_matrix(cases)):
                engine.infer(case)
                walked = engine.metrics["entries_walked"]
                assert engine.metrics["entries_dense"] == dense
                evidence = sum(consistent(c, row) for m in messages for c in m)
                assert walked <= min(static, evidence)
                if not case:
                    assert walked == engine.metrics["messages_run"] == 0
                totals += (walked, dense)
            engine.infer_cases(cases)
            assert (engine.metrics["entries_walked"],
                    engine.metrics["entries_dense"]) == tuple(totals)

    @pytest.mark.parametrize("name", ["det0", "det1", "hailfinder"])
    def test_unwritten_arena_entries_are_never_read(self, native, name):
        _poisoned_scratch_agrees(_named_net(name), seed=3)

    @pytest.mark.parametrize("fraction", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("name", ["det0", "det1", "hailfinder"])
    def test_blocks_match_case_major_and_staged(self, native, name,
                                                fraction):
        _block_cases_agree(_named_net(name), fraction, seed=5)

    @pytest.mark.parametrize("name", ["det0", "det1"])
    def test_impossible_case_in_a_block_keeps_its_text(self, native, name):
        _block_errors_name_the_lowest_case(_named_net(name))

    def test_thread_dispatched_blocks_agree(self, native):
        """Two threads, each running a full table-major block and a
        remainder over its own block arena."""
        from repro.bn.sampling import generate_test_cases
        from repro.core import BatchedFastBNI

        hailfinder = _named_net("hailfinder")
        cases = [c.evidence for c in
                 generate_test_cases(hailfinder, 2 * BLOCK + 6, 0.2, rng=4)]
        with BatchedFastBNI(hailfinder, mode="hybrid", backend="thread",
                            num_workers=2, kernels="native") as fast, \
                BatchedFastBNI(hailfinder, mode="seq",
                               kernels="numpy") as staged:
            got = fast.infer_cases(cases)
            assert fast.metrics["dispatch_tasks"] == 2
            ref = staged.infer_cases(cases)
        for i in range(len(cases)):
            _assert_same(got.case(i), ref.case(i), hailfinder.variable_names)

    def test_four_threads_running_blocks_agree(self, native):
        """Four threads on one engine, back-to-back calls of two full
        table-major blocks and a remainder, each over its own thread's
        block arena, under a 10 us switch interval: every answer matches
        the staged numpy path."""
        import sys

        from repro.bn.sampling import generate_test_cases
        from repro.core import BatchedFastBNI

        net = _named_net("hailfinder")
        calls = [[c.evidence for c in
                  generate_test_cases(net, 2 * BLOCK + 3, 0.3, rng=seed)]
                 for seed in range(4)]
        with BatchedFastBNI(net, mode="seq", kernels="native") as fast, \
                BatchedFastBNI(net, mode="seq", kernels="numpy") as staged:
            want = [staged.infer_cases(cases) for cases in calls]
            got: list = []
            failures: list = []

            def hammer(offset: int) -> None:
                # Calls back to back, checked afterwards, so that the
                # threads' foreign calls overlap.
                try:
                    for round_ in range(12):
                        j = (offset + round_) % len(calls)
                        got.append((j, fast.infer_cases(calls[j])))
                except BaseException as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=hammer, args=(t,))
                           for t in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120)
                assert not any(t.is_alive() for t in threads)
            finally:
                sys.setswitchinterval(interval)
        assert not failures, failures[0]
        assert len(got) == 4 * 12
        for j, result in got:
            np.testing.assert_allclose(result.log_evidence,
                                       want[j].log_evidence, atol=1e-12,
                                       rtol=0)
            for name in net.variable_names:
                np.testing.assert_allclose(result.posteriors[name],
                                           want[j].posteriors[name],
                                           atol=1e-12, rtol=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_matches_staged_numpy_path(self, monkeypatch, native, seed, n):
        from repro.bn.sampling import generate_test_cases
        from repro.core import BatchedFastBNI

        net = _deterministic_net(12 + seed, seed)
        cases = [c.evidence for c in
                 generate_test_cases(net, n, 0.3, rng=seed + 50)]
        cases[0] = {}  # heterogeneous: one slot observes nothing
        names = net.variable_names
        # A subset, out of network order, with a duplicate.
        targets = (names[5], names[1], names[5], names[8])
        with BatchedFastBNI(net, mode="seq", kernels="native") as fast, \
                BatchedFastBNI(net, mode="seq", kernels="numpy") as staged:
            assert any((base == 0.0).any() for base in fast.plan.base_cliques)
            calls = _ForeignCalls(monkeypatch)
            for wanted in ((), targets):
                keys = tuple(dict.fromkeys(wanted)) or names
                batch = fast.infer_cases(cases, targets=wanted)
                ref = staged.infer_cases(cases, targets=wanted)
                assert len(batch) == n
                for i in range(n):
                    _assert_same(batch.case(i), ref.case(i), keys)
                    _assert_same(fast.infer(cases[i], targets=wanted),
                                 staged.infer(cases[i], targets=wanted), keys)
            assert fast.metrics["messages"] == fast.plan.spec.num_messages
        # One foreign call per case block and one per single-case infer,
        # and one compiled calibration when the plan is lowered: the
        # calibrated prior every case starts from.
        assert calls.counts == {**dict.fromkeys(calls.ENTRY_POINTS, 0),
                                "_infer_cases": 2 + 2 * n,
                                "_run_schedule": 1}

    def test_thread_backend_runs_one_call_per_block(self, monkeypatch, native,
                                                    asia):
        from repro.bn.sampling import generate_test_cases
        from repro.core import BatchedFastBNI

        cases = [c.evidence for c in generate_test_cases(asia, 9, 0.25, rng=3)]
        with BatchedFastBNI(asia, mode="hybrid", backend="thread",
                            num_workers=3, kernels="native") as fast, \
                BatchedFastBNI(asia, mode="seq", kernels="numpy") as staged:
            calls = _ForeignCalls(monkeypatch)
            batch = fast.infer_cases(cases, min_block=2)
            assert fast.metrics["dispatch_tasks"] == 3
            # Three blocks, and the prior's calibration at lowering.
            assert calls.counts["_infer_cases"] == 3
            assert calls.counts["_run_schedule"] == 1 == calls.total - 3
            ref = staged.infer_cases(cases)
        assert batch.meta == {"cases": 9.0, "blocks": 3.0,
                              "messages_run": fast.metrics["messages_run"]}
        for i in range(len(cases)):
            _assert_same(batch.case(i), ref.case(i), asia.variable_names)

    def test_impossible_evidence_names_the_case(self, native, sprinkler):
        from repro.core import BatchedFastBNI

        impossible = {"Sprinkler": "off", "Rain": "no", "WetGrass": "yes"}
        cases = [{"WetGrass": "yes"}, {}, impossible, {"Rain": "yes"}]
        with BatchedFastBNI(sprinkler, mode="hybrid", backend="thread",
                            num_workers=2, kernels="native") as engine, \
                FastBNI(sprinkler, mode="seq", kernels="numpy") as staged:
            with pytest.raises(EvidenceError, match=r"\(empty message\) in "
                                                    "case 2$"):
                engine.infer_cases(cases)
            with pytest.raises(EvidenceError, match="case 2$"):
                engine.infer_cases(cases, min_block=1)  # two blocks
            with pytest.raises(EvidenceError, match=r"\(empty message\)$"):
                engine.infer(impossible)
            # What the batcher does next: the other cases, one by one.
            for case in cases[:2] + cases[3:]:
                _assert_same(engine.infer_cases([case]).case(0),
                             staged.infer(case), sprinkler.variable_names)

    def test_unnormalisable_posterior_keeps_its_text(self, native):
        """A one-clique tree sends no message, so on the staged path
        impossible evidence first shows when a read cannot be normalised;
        the whole-case call checks the root total before any read and
        reports the impossible case as such, naming it."""
        from repro.bn.cpt import CPT
        from repro.bn.network import BayesianNetwork
        from repro.bn.variable import Variable
        from repro.core import BatchedFastBNI
        from repro.errors import QueryError

        a, b = Variable.binary("a"), Variable.binary("b")
        net = BayesianNetwork.from_cpts([
            CPT(a, (), np.array([0.5, 0.5])),
            CPT(b, (a,), np.array([[1.0, 0.0], [0.0, 1.0]]))])
        impossible = {"a": "yes", "b": "no"}
        with BatchedFastBNI(net, mode="seq", kernels="native") as fast, \
                BatchedFastBNI(net, mode="seq", kernels="numpy") as staged:
            with pytest.raises(QueryError) as single:
                staged.infer(impossible)
            with pytest.raises(QueryError) as batched:
                staged.infer_cases([{}, impossible])
            assert str(single.value) == (
                "cannot normalise posterior of 'a' (total=0.0)")
            assert str(batched.value) == (
                "cannot normalise posterior of 'a' in case 1 (total=0.0)")
            for targets in ((), ("a",), ("b",)):
                with pytest.raises(EvidenceError) as single:
                    fast.infer(impossible, targets)
                with pytest.raises(EvidenceError) as batched:
                    fast.infer_cases([{}, impossible], targets)
                assert str(single.value) == (
                    "evidence has zero probability (empty message)")
                assert str(batched.value) == (
                    "evidence has zero probability (empty message) in case 1")
                with pytest.raises(EvidenceError) as blocked:
                    fast.infer_cases([{}] * 3 + [impossible] + [{}] * BLOCK,
                                     targets)
                assert str(blocked.value) == (
                    "evidence has zero probability (empty message) in case 3")

    def test_results_never_alias_the_scratch_arena(self, native, asia):
        with FastBNI(asia, mode="seq", kernels="native") as engine:
            first = engine.infer({"smoke": "yes"})
            kept = {name: vals.copy() for name, vals in first.posteriors.items()}
            engine.infer({"smoke": "no", "xray": "yes"})
            for name, vals in kept.items():
                np.testing.assert_array_equal(first.posteriors[name], vals)

    def test_eight_threads_on_one_engine_agree_with_seq(self, monkeypatch,
                                                         native):
        """Eight threads on one cold engine: every answer matches, and
        the threads racing to lower the plan calibrate its prior once."""
        import sys

        from repro.bn.sampling import generate_test_cases

        net = _deterministic_net(14, 7)
        cases = [c.evidence for c in generate_test_cases(net, 24, 0.3, rng=9)]
        with FastBNI(net, mode="seq", kernels="native") as engine, \
                FastBNI(net, mode="seq", kernels="numpy") as staged:
            want = [staged.infer(case) for case in cases]
            failures: list = []
            calls = _ForeignCalls(monkeypatch)

            def hammer(offset: int) -> None:
                try:
                    for round_ in range(6):
                        for i in range(len(cases)):
                            j = (i + offset + round_) % len(cases)
                            _assert_same(engine.infer(cases[j]), want[j],
                                         net.variable_names)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=hammer, args=(3 * t,))
                           for t in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120)
                assert not any(t.is_alive() for t in threads)
            finally:
                sys.setswitchinterval(interval)
        assert not failures, failures[0]
        assert calls.counts["_run_schedule"] == 1

    def test_adopted_read_only_base_is_the_copy_source(self, monkeypatch,
                                                       native, asia,
                                                       tmp_path):
        """A mapped model file (read-only) replaces the private
        CPT-product base and calibrated prior; the whole-case call copies
        from the mapped prior, the staged path from the mapped base."""
        from repro.service import modelfile

        with FastBNI(asia, mode="seq", kernels="native") as engine, \
                FastBNI(asia, mode="seq", kernels="numpy") as staged:
            plan = engine.plan
            engine.kernels.lowered(plan)  # builds the prior
            private = plan.base_flat, plan.prior_flat
            assert modelfile.attach(engine, tmp_path) is False  # wrote it
            for table in private:  # the private buffers are out of use
                table[:] = np.nan
            assert not plan.base_flat.flags.writeable
            assert not plan.prior_flat.flags.writeable
            with pytest.raises(ValueError, match="adopted base"):
                plan.adopt_base(plan.base_flat.astype(np.float32))
            calls = _ForeignCalls(monkeypatch)
            for case in ({}, {"smoke": "yes", "dysp": "no"}):
                _assert_same(engine.infer(case), staged.infer(case),
                             asia.variable_names)
            assert calls.counts["_infer_cases"] == calls.total == 2
            soft = {"dysp": (0.8, 0.1)}
            _assert_same(engine.infer({"smoke": "yes"}, soft_evidence=soft),
                         staged.infer({"smoke": "yes"}, soft_evidence=soft),
                         asia.variable_names)

def _messages_run(plan, row, read_ids) -> tuple[list, bool]:
    """The ``(src, dst)`` cliques of the messages the whole-case call
    runs, from its rule in Python: a collect message iff its child's
    subtree holds an observed clique, a distribute message iff that
    subtree holds a read clique and some observed clique lies outside it
    — and whether some subtree holds no observed clique."""
    spec, tree = plan.spec, plan.tree
    observed = {cid for cid, var_ids in enumerate(spec.clique_vars)
                if any(row[v] >= 0 and spec.variables[v][3] > 1
                       for v in var_ids)}
    read = {spec.variables[v][0] for v in read_ids}
    below = {cid: set() for cid in range(spec.num_cliques)}
    for cid in range(spec.num_cliques):
        node = cid
        while node >= 0:
            below[node].add(cid)
            node = tree.parent[node]
    run, bare = [], False
    for upward, src, dst, _, edge, *_ in plan.compiled_messages(maps=False):
        inside = below[edge.child]
        if (bool(inside & observed) if upward else
                bool(inside & read) and bool(observed - inside)):
            run.append((src, dst))
        bare = bare or not inside & observed
    return run, bare


def _check_sub_schedule(net, fast, staged, oracle, evidence, targets,
                        impossible) -> None:
    """One case through the whole-case call against the staged numpy path
    (and ``oracle`` when given), with the messages it ran checked against
    the rule; ``impossible`` evidence beside it must fail naming its
    case, whatever ``targets`` asks."""
    names = tuple(dict.fromkeys(targets)) or net.variable_names
    got = fast.infer_cases([evidence], targets)
    _assert_same(got.case(0), staged.infer_cases([evidence], targets).case(0),
                 names)
    if oracle is not None:
        _assert_same(got.case(0), oracle.infer(evidence, names), names)
    plan = fast.plan
    row = plan.evidence_matrix([evidence])[0]
    run = fast.metrics["messages_run"]
    needed, bare = _messages_run(plan, row, plan.variable_ids(targets))
    assert run == got.meta["messages_run"] == len(needed)
    if targets and bare:
        assert run < plan.spec.num_messages
    if impossible is not None:
        with pytest.raises(EvidenceError, match=r"zero probability .* in "
                                                "case 1$"):
            fast.infer_cases([evidence, impossible], targets)


@needs_native
class TestSubSchedules:
    """Each case starts from the calibrated prior and runs only the
    messages its evidence and targets need — same answers as the staged
    full schedule and the enumeration oracle, over random evidence (none,
    through deterministic CPTs, impossible) and targets (all, one,
    several, duplicated)."""

    @pytest.fixture(scope="class",
                    params=["asia", "hailfinder", "pathfinder"])
    def engines(self, request):
        from repro.baselines.enumeration import EnumerationEngine
        from repro.bn.repository import resolve_network
        from repro.core import BatchedFastBNI

        net = resolve_network(request.param)
        oracle = (EnumerationEngine(net) if len(net.variables) <= 12
                  else None)
        with BatchedFastBNI(net, mode="seq", kernels="native") as fast, \
                BatchedFastBNI(net, mode="seq", kernels="numpy") as staged:
            yield net, fast, staged, oracle

    def test_random_cases_match_staged_and_oracle(self, engines):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from repro.bn.sampling import generate_test_cases

        net, fast, staged, oracle = engines
        impossible = _impossible_case(net)

        @settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(seed=st.integers(0, 2**31),
               fraction=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
               targets=st.lists(st.sampled_from(net.variable_names),
                                max_size=4))
        def check(seed, fraction, targets):
            (case,) = generate_test_cases(net, 1, fraction, rng=seed)
            _check_sub_schedule(net, fast, staged, oracle, case.evidence,
                                tuple(targets), impossible)

        check()

    def test_no_evidence_runs_nothing(self, engines):
        """With nothing observed every table is already the answer: no
        message runs and log P(e) is 0, whatever is read."""
        net, fast, staged, _ = engines
        for targets in ((), net.variable_names[:1]):
            got = fast.infer_cases([{}], targets)
            assert fast.metrics["messages_run"] == 0
            assert fast.metrics["entries_walked"] == 0
            assert got.log_evidence[0] == pytest.approx(0.0, abs=1e-12)


@needs_native
class TestWholeCaseFallbacks:
    """Every condition that keeps a request on the staged path, and two
    that no longer do: a recorder installed, index maps over budget."""

    CASE = {"smoke": "yes", "xray": "no"}

    def _reference(self, asia, **kwargs):
        with FastBNI(asia, mode="seq", kernels="numpy") as staged:
            return staged.infer(self.CASE, **kwargs)

    def test_hooks_take_the_one_whole_case_call(self, monkeypatch, native,
                                                asia):
        """A sampled request runs the code an unsampled one does: one
        whole-case call, the same answers bit for bit, and the recorder
        gets that call's time and the messages it ran."""
        from repro.core import BatchedFastBNI
        from repro.obs.trace import ScheduleRecorder, install_kernel_hooks

        with BatchedFastBNI(asia, mode="seq", kernels="native") as engine:
            plain = engine.infer(self.CASE)
            plain_batch = engine.infer_cases([self.CASE, {}])
            calls = _ForeignCalls(monkeypatch)
            single, batched = ScheduleRecorder(), ScheduleRecorder()
            with install_kernel_hooks(single):
                got = engine.infer(self.CASE)
            single_run = engine.metrics["messages_run"]
            with install_kernel_hooks(batched):
                batch = engine.infer_cases([self.CASE, {}])
            batch_run = engine.metrics["messages_run"]
        assert calls.counts == {**dict.fromkeys(calls.ENTRY_POINTS, 0),
                                "_infer_cases": 2}
        _assert_same(got, plain, asia.variable_names, atol=0)
        for i in range(2):
            _assert_same(batch.case(i), plain_batch.case(i),
                         asia.variable_names, atol=0)
        assert 0 < single.messages == single_run
        assert single.backend == batched.backend == "native"
        assert single.schedule_s > 0 and single.collect_s == 0
        assert batched.messages == batch_run and batched.cases == 2
        assert batched.summary()["arena_bytes"] == engine.plan.arena_bytes

    def test_soft_evidence(self, monkeypatch, native, asia):
        soft = {"dysp": (0.8, 0.1)}
        want = self._reference(asia, soft_evidence=soft)
        with FastBNI(asia, mode="seq", kernels="native") as engine:
            calls = _ForeignCalls(monkeypatch)
            got = engine.infer(self.CASE, soft_evidence=soft)
        _assert_same(got, want, asia.variable_names)
        # Soft evidence needs a state to multiply into: the staged path,
        # whose schedule is still one call — after the one that lowering
        # the plan spends on its calibrated prior.
        assert calls.counts["_run_schedule"] == calls.total == 2

    def test_parallel_modes_stay_staged(self, monkeypatch, native, asia):
        want = self._reference(asia)
        with FastBNI(asia, mode="inter", backend="thread", num_workers=2,
                     kernels="native") as engine:
            calls = _ForeignCalls(monkeypatch)
            _assert_same(engine.infer(self.CASE), want, asia.variable_names)
        assert calls.counts["_message"] == calls.total > 0

    def test_maps_over_budget(self, monkeypatch, native, asia):
        """The whole-case call reads no index map, so a plan whose map
        budget is spent still answers each call in one foreign call."""
        from repro.core import BatchedFastBNI

        want = self._reference(asia)
        with BatchedFastBNI(asia, mode="seq", kernels="native") as engine:
            monkeypatch.setattr(engine.plan, "MAP_CACHE_LIMIT", 0)
            engine.prepare_baseline()
            calls = _ForeignCalls(monkeypatch)
            _assert_same(engine.infer(self.CASE), want, asia.variable_names)
            batch = engine.infer_cases([self.CASE])
            assert engine.stats()["plan_map_entries"] == 0
        _assert_same(batch.case(0), want, asia.variable_names)
        assert calls.counts == {**dict.fromkeys(calls.ENTRY_POINTS, 0),
                                "_infer_cases": 2}

    def test_disabled_library(self, monkeypatch, asia):
        from repro.core import BatchedFastBNI

        want = self._reference(asia)
        monkeypatch.setenv(DISABLE_ENV, "1")
        held = _KERNEL_INSTANCES.pop("native", None)
        try:
            with BatchedFastBNI(asia, mode="seq", kernels="native") as engine:
                assert engine.kernels.name == "fused"
                _assert_same(engine.infer(self.CASE), want,
                             asia.variable_names)
                _assert_same(engine.infer_cases([self.CASE]).case(0), want,
                             asia.variable_names)
        finally:
            _KERNEL_INSTANCES.pop("native", None)
            if held is not None:
                _KERNEL_INSTANCES["native"] = held


class _CountingKernels:
    """A kernel backend stub that only counts the messages it is asked for."""

    name = "counting"
    wants_maps = False

    def __init__(self):
        self.messages = 0

    def message(self, *args):
        self.messages += 1
        return 0.0

    def message_batch(self, src, *args, **kwargs):
        self.messages += 1
        return np.zeros(src.shape[0])


class TestUnknownTargetsCostNothing:
    """An unknown target is rejected before any table is touched."""

    def test_staged_path_sends_no_message(self, asia):
        from repro.core import BatchedFastBNI
        from repro.errors import QueryError

        with BatchedFastBNI(asia, mode="seq") as engine:
            stub = engine.kernels = _CountingKernels()
            for run in (lambda: engine.infer({}, targets=("lung", "nope")),
                        lambda: engine.infer_cases([{}], targets=("nope",))):
                with pytest.raises(QueryError, match="unknown variable 'nope'"):
                    run()
            assert stub.messages == 0
            engine.infer({}, targets=("lung",))
            assert stub.messages == engine.plan.spec.num_messages

    @needs_native
    def test_native_path_makes_no_foreign_call(self, monkeypatch, native,
                                               asia):
        from repro.core import BatchedFastBNI
        from repro.errors import QueryError

        with BatchedFastBNI(asia, mode="seq", kernels="native") as engine:
            calls = _ForeignCalls(monkeypatch)
            for run in (lambda: engine.infer({}, targets=("nope",)),
                        lambda: engine.infer_cases([{}], targets=("nope",))):
                with pytest.raises(QueryError, match="unknown variable 'nope'"):
                    run()
            assert calls.total == 0


# ------------------------------------------------- pinned loop geometry
def _axes_rows(cards, kept) -> np.ndarray:
    """``(variable id, stride, cardinality)`` rows of a table row-major
    over the axes ``kept`` of ``cards`` (variable id = axis index), its
    one-state axes left out as lowering leaves them out."""
    strides = np.cumprod([1] + [cards[a] for a in kept][::-1])[::-1][1:]
    rows = [(a, int(stride), cards[a]) for a, stride in zip(kept, strides)
            if cards[a] > 1]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 3)


def _check_loop_geometry(native, cards, states, kept, seed=0) -> None:
    """``fbni_pinned_marginalize`` and ``fbni_pinned_absorb`` on a
    row-major table with axis cardinalities ``cards``, per-axis observed
    ``states`` (-1 = unobserved) and a target over the axes ``kept``,
    against NumPy: the marginal adds the consistent entries into the
    target, the absorb writes ``src * ratio`` over them — from another
    array and in place — and neither touches any other entry."""
    rng = np.random.default_rng(seed)
    cards, kept = tuple(int(c) for c in cards), tuple(kept)
    lib, n = native._lib, len(cards)
    axes, target = _axes_rows(cards, range(n)), _axes_rows(cards, kept)
    observed = np.array(states, dtype=np.int64)
    consistent = np.zeros(cards, dtype=bool)
    consistent[tuple(s if s >= 0 else slice(None) for s in states)] = True
    # Each entry's index in the target, row-major over the kept axes.
    tshape = [cards[a] for a in kept]
    grid = np.indices(cards)
    at = np.zeros(cards, dtype=np.int64)
    for a in kept:
        at = at * cards[a] + grid[a]
    table = rng.random(cards)
    out = rng.random(int(np.prod(tshape, dtype=np.int64)))
    want = out.copy()
    np.add.at(want, at[consistent], table[consistent])
    lib.fbni_pinned_marginalize(table.ctypes.data, axes.ctypes.data,
                                len(axes), target.ctypes.data, len(target),
                                observed.ctypes.data, out.ctypes.data)
    np.testing.assert_allclose(out, want, rtol=1e-13, atol=0)
    ratio, src = rng.random(out.size), rng.random(cards)
    for in_place in (False, True):
        written = src.copy() if in_place else np.full(cards, np.nan)
        lib.fbni_pinned_absorb(
            written.ctypes.data, (written if in_place else src).ctypes.data,
            axes.ctypes.data, len(axes), target.ctypes.data, len(target),
            observed.ctypes.data, ratio.ctypes.data)
        np.testing.assert_array_equal(written, np.where(
            consistent, src * ratio[at], src if in_place else np.nan))


@needs_native
class TestEvidenceRuns:
    """The entries a case's evidence leaves possible, as the whole-case
    call walks them: a table's observed axes pinned, its free axes a
    strided loop carrying each entry's index in the target (a separator,
    a read's marginal, a single total).  The exported loop primitives
    against NumPy over random cardinalities, states and targets."""

    @pytest.mark.parametrize("cards, states", [
        ((3, 2, 4), (-1, -1, -1)),   # nothing observed
        ((3, 2, 4), (2, 0, 3)),      # everything observed
        ((3, 2, 4), (1, -1, -1)),    # first axis
        ((3, 2, 4), (-1, -1, 2)),    # last axis: one-entry runs
        ((3, 1, 4), (-1, 0, -1)),    # only a one-state axis: unobserved
        ((3, 4, 1), (-1, 2, 0)),     # a one-state axis inside a pinned one
        ((1, 1), (0, 0)),
        ((5,), (4,)),
    ])
    def test_named_geometries(self, native, cards, states):
        n = len(cards)
        for kept in ((), (0,), (n - 1,), tuple(range(n)),
                     tuple(range(0, n, 2)), tuple(range(1, n))):
            _check_loop_geometry(native, cards, states, kept)

    def test_random_axes_and_evidence(self, native):
        from hypothesis import given, settings, strategies as st

        @st.composite
        def tables(draw):
            cards = tuple(draw(st.lists(st.integers(1, 4), min_size=1,
                                        max_size=6)))
            states = tuple(draw(st.integers(-1, card - 1)) for card in cards)
            kept = tuple(a for a in range(len(cards)) if draw(st.booleans()))
            return cards, states, kept, draw(st.integers(0, 2**31))

        @settings(max_examples=300, deadline=None)
        @given(tables())
        def check(table):
            _check_loop_geometry(native, *table)

        check()

    def test_one_state_variables_constrain_nothing(self, native):
        """Observing a variable with a single state leaves every table
        dense, in C as on the staged path."""
        from repro.bn.cpt import CPT
        from repro.bn.network import BayesianNetwork
        from repro.bn.variable import Variable

        only = Variable("only", ("it",))
        a, b = Variable.binary("a"), Variable("b", ("x", "y", "z"))
        net = BayesianNetwork.from_cpts([
            CPT(only, (), np.array([1.0])),
            CPT(a, (only,), np.array([[0.3, 0.7]])),
            CPT(b, (only, a), np.array([[[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]]))])
        with FastBNI(net, mode="seq", kernels="native") as fast, \
                FastBNI(net, mode="seq", kernels="numpy") as staged:
            for case in ({"only": "it"}, {"only": 0, "b": "z"}):
                _assert_same(fast.infer(case), staged.infer(case),
                             net.variable_names)
            fast.infer({"only": "it"})
            assert (fast.metrics["entries_walked"]
                    == fast.metrics["entries_dense"])


def _with(values: np.ndarray, index: int, value: float) -> np.ndarray:
    changed = values.copy()
    changed[index] = value
    return changed


def _foreign_separator_variable(t, spec) -> None:
    """Give a one-axis separator a variable its cliques do not hold (of
    the same cardinality, so its strides still tile it)."""
    sep = next(u for u in range(spec.num_cliques, len(t.tables))
               if t.tables[u, 3] == 1)
    axis = t.axes[t.tables[sep, 2]]
    held = {vid for row in t.meta if row[3] == sep
            for c in row[1:3]
            for vid in t.axes[t.tables[c, 2]:t.tables[c, 2]
                              + t.tables[c, 3], 0]}
    axis[0] = next(v for v, (_, _, _, card) in enumerate(spec.variables)
                   if card == axis[2] and v not in held)


# ------------------------------------------------ metadata never unchecked
@needs_native
class TestTablesAreBoundsChecked:
    """C walks the lowered tables blind, so Python checks them first."""

    @pytest.fixture()
    def lowered(self, asia):
        from repro.exec.native.backend import lower_plan

        plan = compile_plan(compile_junction_tree(asia))
        return plan, lower_plan(plan)

    def test_a_sound_lowering_passes(self, lowered):
        from repro.exec.native.backend import check_tables

        plan, tables = lowered
        check_tables(plan.spec, tables)

    @pytest.mark.parametrize("corrupt", [
        # Message rows: a table id naming another table, out of range or
        # of the wrong kind; a message count that is not the table's.
        lambda t, spec: t.meta.__setitem__((0, 1), t.meta[0, 2]),
        lambda t, spec: t.meta.__setitem__((1, 2), -1),
        lambda t, spec: t.meta.__setitem__((2, 3), 0),
        lambda t, spec: t.meta.__setitem__((0, 3), len(t.tables)),
        lambda t, spec: t.meta.__setitem__((3, 0), 1 - t.meta[3, 0]),
        lambda t, spec: setattr(t, "max_sep", 1),
        lambda t, spec: setattr(t, "n_messages", t.n_messages + 1),
        # Tables of the wrong shape: a table row missing, axes rows too
        # narrow, the last message row missing.
        lambda t, spec: setattr(t, "tables", t.tables[:-1]),
        lambda t, spec: setattr(t, "axes", t.axes[:, :2].copy()),
        lambda t, spec: setattr(t, "meta", t.meta[:-1]),
        # Variable rows.
        lambda t, spec: t.var_table.__setitem__((0, 0), spec.num_cliques),
        lambda t, spec: t.var_table.__setitem__((1, 0), -1),
        lambda t, spec: t.var_table.__setitem__((2, 1), 0),
        lambda t, spec: t.var_table.__setitem__((3, 2), 3),
        # Table and axes rows: an axis variable id out of range, strides
        # that do not tile, a cardinality that is not the variable's, an
        # axes row past the end, more axes than the C odometer's depth, a
        # table that is not the arena's, a variable row missing; loop rows
        # that are not the axes' (here and at the end); an axes row before
        # the start.
        lambda t, spec: t.axes.__setitem__((0, 0), len(spec.variables)),
        lambda t, spec: t.axes.__setitem__((0, 1), t.axes[0, 1] + 1),
        lambda t, spec: t.axes.__setitem__((1, 2), 3),
        lambda t, spec: t.tables.__setitem__((-1, 2), len(t.axes)),
        lambda t, spec: t.tables.__setitem__((0, 3), MAX_AXES + 1),
        lambda t, spec: t.tables.__setitem__((1, 0), 0),
        lambda t, spec: t.tables.__setitem__((0, 1), t.tables[0, 1] + 1),
        lambda t, spec: setattr(t, "var_table", t.var_table[:-1]),
        lambda t, spec: t.loops.__setitem__((0, 0), t.loops[0, 0] + 1),
        lambda t, spec: t.tables.__setitem__((1, 2), -1),
        # Loop rows: a stride or a separator stride changed, a head
        # naming more rows, a row missing; a message naming another slot.
        lambda t, spec: t.loops.__setitem__((1, 1), t.loops[1, 1] * 2),
        lambda t, spec: t.loops.__setitem__((1, 2), t.loops[1, 2] + 1),
        lambda t, spec: t.loops.__setitem__((t.meta[1, 5], 0),
                                            t.loops[t.meta[1, 5], 0] + 1),
        lambda t, spec: setattr(t, "loops", t.loops[:-1]),
        lambda t, spec: t.meta.__setitem__((0, 4), t.meta[0, 5]),
        lambda t, spec: t.meta.__setitem__((2, 6), 0),
        # Axes out of variable order; a separator variable one of its
        # cliques lacks.
        lambda t, spec: t.axes.__setitem__((slice(0, 2), 0),
                                           t.axes[[1, 0], 0]),
        _foreign_separator_variable,
    ])
    def test_corrupted_tables_are_rejected(self, lowered, corrupt):
        from repro.exec.native.backend import check_tables

        plan, tables = lowered
        check_tables(plan.spec, tables)
        corrupt(tables, plan.spec)
        with pytest.raises(BackendError, match="native plan tables rejected"):
            check_tables(plan.spec, tables)

    @pytest.mark.parametrize("corrupt", [
        lambda prior, spec: _with(prior, 0, np.nan),
        lambda prior, spec: _with(prior, -1, np.inf),
        lambda prior, spec: _with(prior, 1, -0.5),
        # A separator that no longer sums to 1 (its entries all positive).
        lambda prior, spec: _with(prior, spec.sep_offsets[0], 1.5),
        lambda prior, spec: prior[:-1],
        lambda prior, spec: prior.astype(np.float32),
        lambda prior, spec: np.repeat(prior, 2)[::2],
    ])
    def test_corrupted_prior_is_rejected(self, lowered, corrupt):
        from repro.exec.native.backend import check_tables

        plan, tables = lowered
        numpy_k = get_kernels("numpy")
        prior = plan.calibrate_prior(
            lambda state: run_message_schedule(plan, state, numpy_k))
        check_tables(plan.spec, tables, prior)
        with pytest.raises(BackendError, match="calibrated prior"):
            check_tables(plan.spec, tables, corrupt(prior, plan.spec))

    def test_an_adopted_corrupt_prior_never_reaches_c(self, monkeypatch,
                                                      native, asia,
                                                      tmp_path):
        """A mapped prior is checked before the first call copies from
        it: here model files whose digest holds but whose prior has a
        negative entry, or a separator that does not sum to 1."""
        from repro.service import modelfile

        with FastBNI(asia, mode="seq", kernels="native") as engine:
            modelfile.attach(engine, tmp_path)
            (path,) = tmp_path.glob("*.npy")
            plan = engine.plan
            base, good = plan.base_flat.copy(), plan.prior_flat.copy()

            def remap(prior) -> None:
                path.unlink()
                modelfile.write(path, [base, prior])
                assert modelfile.attach(engine, tmp_path) is True

            calls = _ForeignCalls(monkeypatch)
            for bad in (_with(good, 0, -1.0),
                        _with(good, plan.spec.sep_offsets[0], 1.5)):
                remap(bad)
                with pytest.raises(BackendError, match="calibrated prior"):
                    engine.infer({"smoke": "yes"})
            assert calls.total == 0
            remap(good)
            engine.infer({"smoke": "yes"})
            assert calls.total == 1

    def test_a_corrupted_plan_never_reaches_c(self, monkeypatch, native, asia):
        """The check runs when the plan is lowered, ahead of the first call:
        here a plan whose first clique claims one entry more than its
        variables give."""
        from dataclasses import replace

        with FastBNI(asia, mode="seq", kernels="native") as engine:
            spec = engine.plan.spec
            monkeypatch.setattr(engine.plan, "spec", replace(
                spec, clique_sizes=(spec.clique_sizes[0] + 1,
                                    *spec.clique_sizes[1:])))
            calls = _ForeignCalls(monkeypatch)
            with pytest.raises(BackendError, match="do not tile it"):
                engine.infer({})
            assert calls.total == 0

    def test_out_of_range_reads_and_states_are_rejected(self, monkeypatch,
                                                        native, asia):
        from repro.errors import QueryError

        plan = compile_plan(compile_junction_tree(asia))
        n_vars = len(plan.variable_names)
        native.infer_cases(plan, plan.evidence_matrix([{}]), (0,))  # lowers
        calls = _ForeignCalls(monkeypatch, native)  # the backend called below
        good = plan.evidence_matrix([{"smoke": "yes"}])
        for read_ids in ((n_vars,), (0, -1)):
            with pytest.raises(QueryError, match="out of range"):
                native.infer_cases(plan, good, read_ids)
        for state in (-2, 2, 10**9):
            bad = good.copy()
            bad[0, 3] = state
            with pytest.raises(EvidenceError, match="outside its variable"):
                native.infer_cases(plan, bad, (0,))
        for matrix in (good.astype(np.int32), good[:, :-1], good[0],
                       np.asfortranarray(np.vstack([good, good]))):
            with pytest.raises(BackendError, match="int64"):
                native.infer_cases(plan, matrix, (0,))
        assert calls.total == 0
        # check_evidence stays in front of the matrices engines build.
        from repro.errors import NetworkError

        with FastBNI(asia, mode="seq", kernels="native") as engine:
            engine_calls = _ForeignCalls(monkeypatch)
            for evidence in ({"smoke": 2}, {"smoke": "maybe"}, {"nope": 0}):
                with pytest.raises((EvidenceError, NetworkError)):
                    engine.infer(evidence)
                with pytest.raises((EvidenceError, NetworkError)):
                    engine.plan.evidence_matrix([{}, evidence])
            assert engine_calls.total == 0


# ------------------------------------------------------- sanitizer run
def _sanitized_whole_case_loop(so_path: str) -> None:
    """Entry point of the sanitizer subprocess: every C entry point on a
    library built from ``C_SOURCE`` with ASan + UBSan — the whole-case
    property loop (also over NaN-filled scratch) and its status paths,
    case-major and in table-major blocks (full blocks, a remainder,
    impossible cases in and after them), ``fbni_run_schedule`` (each
    plan's prior calibration, and states with soft evidence absorbed),
    ``fbni_message`` (``inter``-mode calibrations and random edges) and
    the loop primitives.  ``NativeKernels`` keeps every region C writes
    (case arena, message scratch, case words, block arena, block
    scratch, output block) in its own allocation, so a one-word overrun
    lands in a redzone."""
    import ctypes

    from repro.exec.native.backend import NativeKernels
    from repro.exec.native.build import _declare

    lib = ctypes.CDLL(so_path)
    _declare(lib)
    backend = _KERNEL_INSTANCES["native"] = NativeKernels(lib, so_path)
    from repro.bn.sampling import generate_test_cases
    from repro.core import BatchedFastBNI

    for seed in (0, 1, 2):
        for fraction in (0.0, 0.1, 0.5, 1.0):
            _whole_cases_agree(_deterministic_net(12 + seed, seed), fraction,
                               n=6, seed=seed)
        # Sub-schedules: restricted targets, nothing observed, impossible.
        net = _deterministic_net(12 + seed, seed)
        rng = np.random.default_rng(seed)
        with BatchedFastBNI(net, mode="seq", kernels="native") as fast, \
                BatchedFastBNI(net, mode="seq", kernels="numpy") as staged:
            for fraction in (0.0, 0.1, 0.3):
                for case in generate_test_cases(net, 4, fraction, rng=rng):
                    targets = tuple(rng.choice(net.variable_names,
                                               size=rng.integers(0, 4)))
                    _check_sub_schedule(net, fast, staged, None,
                                        case.evidence, targets,
                                        _impossible_case(net))
    for name in ("det0", "hailfinder"):
        _poisoned_scratch_agrees(_named_net(name), seed=3)
        _block_cases_agree(_named_net(name), 0.2, seed=5)
    _block_errors_name_the_lowest_case(_named_net("det0"))
    # The schedule runner on soft-evidence states, and single messages in
    # inter mode, against the staged numpy path.
    for name in ("det1", "hailfinder"):
        net = _named_net(name)
        rng = np.random.default_rng(4)
        with FastBNI(net, mode="seq", kernels="native") as fast, \
                FastBNI(net, mode="inter", backend="serial",
                        kernels="native") as inter, \
                FastBNI(net, mode="seq", kernels="numpy") as staged:
            for case in generate_test_cases(net, 3, 0.2, rng=rng):
                var = net.variables[int(rng.integers(len(net.variables)))]
                soft = {var.name: rng.random(var.cardinality) + 0.1}
                _assert_same(fast.infer({}, soft_evidence=soft),
                             staged.infer({}, soft_evidence=soft),
                             net.variable_names)
                _assert_same(inter.infer(case.evidence),
                             staged.infer(case.evidence), net.variable_names)
    rng = np.random.default_rng(6)
    numpy_k = get_kernels("numpy")
    for degenerate in (False, True):
        for upward in (True, False):
            for _ in range(20):
                edge = _random_edge(rng, degenerate)
                src, dst, sep = _message_state(rng, edge, upward)
                d1, s1, d2, s2 = dst.copy(), sep.copy(), dst.copy(), sep.copy()
                log1 = numpy_k.message(src.copy(), d1, s1, edge, upward)
                log2 = backend.message(src.copy(), d2, s2, edge, upward)
                assert abs(log1 - log2) <= 1e-12
                np.testing.assert_allclose(d1, d2, atol=1e-12, rtol=0)
    rng = np.random.default_rng(5)
    for seed in range(200):
        cards = tuple(rng.integers(1, 5, size=rng.integers(1, 7)))
        states = tuple(int(rng.integers(-1, card)) for card in cards)
        kept = tuple(np.flatnonzero(rng.random(len(cards)) < 0.5))
        _check_loop_geometry(backend, cards, states, kept, seed)
    print("whole-case loop ok")


@needs_native
class TestSanitizer:
    def test_whole_case_loop_under_asan_and_ubsan(self, tmp_path):
        """C never writes past a buffer it was handed: the property loop
        re-run on an instrumented build, in a subprocess that preloads
        the ASan runtime.  Skipped where the compiler has no libasan."""
        import subprocess
        import sys
        from pathlib import Path

        from repro.exec.native import C_SOURCE, find_compiler
        from repro.exec.native.build import CFLAGS

        compiler = find_compiler()
        runtime = subprocess.run(
            [compiler, "-print-file-name=libasan.so"], capture_output=True,
            text=True).stdout.strip()
        if not os.path.isabs(runtime) or not os.path.exists(runtime):
            pytest.skip(f"{compiler} has no libasan.so")
        c_file, so_path = tmp_path / "fbni_kernels.c", tmp_path / "fbni_asan.so"
        c_file.write_text(C_SOURCE)
        built = subprocess.run(
            [compiler, *CFLAGS, "-g",
             "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
             "-o", str(so_path), str(c_file), "-lm"],
            capture_output=True, text=True, timeout=300)
        if built.returncode != 0:
            pytest.skip(f"sanitizer build failed: {built.stderr.strip()[:300]}")
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "LD_PRELOAD": runtime,
               "ASAN_OPTIONS": "detect_leaks=0",
               "PYTHONPATH": os.pathsep.join(
                   [str(root / "src"), str(root),
                    os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-c",
             "import sys; from tests.test_native_kernels import "
             "_sanitized_whole_case_loop as loop; loop(sys.argv[1])",
             str(so_path)],
            cwd=root, env=env, capture_output=True, text=True, timeout=600)
        assert run.returncode == 0 and "whole-case loop ok" in run.stdout, (
            run.stderr[-4000:])
