"""Tests for streaming evidence sessions + the engine-lifecycle bugfix sweep.

Covers the :class:`~repro.service.sessions.SessionManager` table
(open/update/query/close, eviction semantics, byte accounting, pin
integration), the session ops over the wire, and regression tests for
the four lifecycle fixes that shipped with sessions:

1. ``get_pinned`` closes the get-then-pin eviction race (mpe/info/
   query_batch no longer lose their engine to a concurrent cold load);
2. non-finite floats are sanitised before serialization and ``_write``
   falls back to an InternalError envelope — a client never hangs on a
   response line that never comes;
3. ``ModelRegistry.close()`` retires entries instead of blind-closing
   them, honouring live pins;
4. ``run_server`` tears down its executor threads when startup fails
   (bad preload, port already bound).
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.enumeration import EnumerationEngine
from repro.bn.datasets import load_dataset
from repro.bn.sampling import generate_test_cases
from repro.core import FastBNI
from repro.errors import EvidenceError, QueryError, ReproError, SessionError
from repro.exec.native import native_status
from repro.service import (InferenceServer, ModelRegistry, ServiceClient,
                           ServiceMetrics, SessionManager)
from repro.service.server import _jsonable, run_server


NATIVE_AVAILABLE, NATIVE_REASON = native_status()
needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason=f"native backend unavailable: {NATIVE_REASON}")


def run(coro):
    return asyncio.run(coro)


def _fastbni_reference(net, evidence, target):
    with FastBNI(net, mode="seq") as engine:
        result = engine.infer(evidence, (target,))
    return result.posteriors[target], result.log_evidence


# ------------------------------------------------------------------- manager
class TestSessionManager:
    def test_open_update_query_close_roundtrip(self, asia):
        with ModelRegistry() as registry, SessionManager(registry) as manager:
            opened = manager.open("asia")
            sid = opened["session"]
            assert opened["network"] == "asia"
            assert opened["evidence_vars"] == 0

            r = manager.update(sid, evidence={"smoke": "yes"},
                               targets=("lung",))
            assert r["delta"]["added"] == ["smoke"]
            assert r["delta"]["size"] == 1
            want_post, want_lev = _fastbni_reference(
                asia, {"smoke": "yes"}, "lung")
            np.testing.assert_allclose(r["posteriors"]["lung"], want_post,
                                       atol=1e-12)
            assert r["log_evidence"] == pytest.approx(want_lev, abs=1e-12)

            q = manager.query(sid, targets=("bronc",))
            assert q["served_by"] == "session"
            assert set(q["posteriors"]) == {"bronc"}

            closed = manager.close(sid)
            assert closed["closed"] is True
            assert closed["updates"] == 1

    def test_merge_retract_and_replace_semantics(self, asia):
        with ModelRegistry() as registry, SessionManager(registry) as manager:
            sid = manager.open("asia", evidence={"smoke": "yes"})["session"]
            # Default is merge: the new finding joins the old one.
            r = manager.update(sid, evidence={"asia": "yes"})
            assert r["evidence_vars"] == 2
            # Retract withdraws one finding, merge applies the rest.
            r = manager.update(sid, retract=("smoke",),
                               evidence={"xray": "yes"})
            assert r["evidence_vars"] == 2
            assert "smoke" in r["delta"]["retracted"]
            # Replace swaps the whole set.
            r = manager.update(sid, evidence={"bronc": "no"}, replace=True)
            assert r["evidence_vars"] == 1
            # Unknown retract target fails before any state changes.
            with pytest.raises(EvidenceError, match="cannot retract"):
                manager.update(sid, retract=("nope",))
            assert manager.query(sid)["evidence_vars"] == 1

    def test_randomized_walks_agree_with_cold_engine(self, asia):
        """Acceptance: concurrent sessions under randomized add/retract/
        change walks agree with a cold FastBNI calibration to 1e-12."""
        rng = np.random.default_rng(2023)
        variables = [v for v in asia.variable_names if v != "dysp"]

        def random_walk(evidence: dict) -> tuple[dict, dict]:
            """One random edit: add, retract, or change a finding."""
            kwargs: dict = {}
            settled = [v for v in variables if v in evidence]
            move = rng.choice(["add", "retract", "change"])
            if move == "retract" and settled:
                kwargs["retract"] = (str(rng.choice(settled)),)
            else:
                pool = settled if move == "change" and settled else variables
                name = str(rng.choice(pool))
                var = asia.variable(name)
                kwargs["evidence"] = {
                    name: var.states[int(rng.integers(var.cardinality))]}
            new = dict(evidence)
            for name in kwargs.get("retract", ()):
                new.pop(name, None)
            new.update(kwargs.get("evidence", {}))
            return kwargs, new

        with ModelRegistry() as registry, SessionManager(registry) as manager:
            sessions = [(manager.open("asia")["session"], {})
                        for _ in range(3)]
            with FastBNI(asia, mode="seq") as cold:
                for _ in range(12):
                    next_sessions = []
                    for sid, evidence in sessions:
                        kwargs, evidence = random_walk(evidence)
                        got = manager.update(sid, targets=("dysp",), **kwargs)
                        want = cold.infer(evidence, ("dysp",))
                        np.testing.assert_allclose(
                            got["posteriors"]["dysp"],
                            want.posteriors["dysp"], atol=1e-12)
                        assert got["log_evidence"] == pytest.approx(
                            want.log_evidence, abs=1e-12)
                        next_sessions.append((sid, evidence))
                    sessions = next_sessions

    def test_closed_and_unknown_ids_raise_explicit_errors(self):
        with ModelRegistry() as registry, SessionManager(registry) as manager:
            sid = manager.open("asia")["session"]
            manager.close(sid)
            with pytest.raises(SessionError, match="closed by client") as ei:
                manager.update(sid, evidence={"smoke": "yes"})
            assert ei.value.code == "session_closed"
            with pytest.raises(SessionError, match="closed") as ei:
                manager.close(sid)
            assert ei.value.code == "session_closed"
            with pytest.raises(SessionError, match="unknown session") as ei:
                manager.query("never-issued")
            assert ei.value.code == "session_unknown"
            with pytest.raises(QueryError, match="session"):
                manager.query("")

    def test_lru_eviction_under_count_cap(self):
        with ModelRegistry() as registry, \
                SessionManager(registry, max_sessions=2) as manager:
            first = manager.open("asia")["session"]
            second = manager.open("asia")["session"]
            third = manager.open("asia")["session"]
            with pytest.raises(SessionError, match="table full") as ei:
                manager.query(first)
            assert ei.value.code == "session_closed"
            for sid in (second, third):
                assert manager.query(sid)["served_by"] == "session"

    def test_byte_budget_eviction_returns_session_closed(self):
        """Session eviction under byte pressure is an explicit error,
        never a hang or a silent restart (acceptance)."""
        with ModelRegistry() as registry, \
                SessionManager(registry, max_bytes=1) as manager:
            first = manager.open("asia")["session"]
            second = manager.open("asia")["session"]
            # Both sessions are over the 1-byte budget; opening the
            # second evicted the LRU first (the newest always survives,
            # mirroring the registry's never-evict-MRU rule).
            assert manager.query(second)["served_by"] == "session"
            with pytest.raises(SessionError,
                               match="byte budget exceeded") as ei:
                manager.update(first, evidence={"smoke": "yes"})
            assert ei.value.code == "session_closed"
            assert manager.stats()["open"] == 1

    def test_idle_ttl_eviction_with_injected_clock(self):
        t = [0.0]
        with ModelRegistry() as registry, \
                SessionManager(registry, idle_ttl_s=10.0,
                               clock=lambda: t[0]) as manager:
            stale = manager.open("asia")["session"]
            t[0] = 5.0
            fresh = manager.open("asia")["session"]
            t[0] = 12.0  # stale idle 12s > TTL; fresh idle 7s
            assert manager.sweep() == 1
            assert manager.query(fresh)["served_by"] == "session"
            with pytest.raises(SessionError, match="idle TTL") as ei:
                manager.query(stale)
            assert ei.value.code == "session_closed"

    def test_session_bytes_charged_to_entry_and_released(self):
        with ModelRegistry() as registry, SessionManager(registry) as manager:
            entry = registry.get("asia")
            assert entry.session_bytes == 0
            sid = manager.open("asia", evidence={"smoke": "yes"})["session"]
            manager.update(sid, evidence={"asia": "yes"}, targets=("lung",))
            # A session is its evidence: one fixed charge, whatever it read.
            charged = entry.session_bytes
            assert charged == manager._sessions[sid].bytes == 2048
            assert manager.total_bytes() == charged
            assert registry.stats()["resident_bytes"] >= charged
            manager.close(sid)
            assert entry.session_bytes == 0
            assert manager.total_bytes() == 0

    def test_model_eviction_retires_entry_with_live_session(self):
        """Evicting a model with a live session retires the entry; the
        shared engine closes only when the last session ends."""
        with ModelRegistry(max_bytes=1) as registry, \
                SessionManager(registry) as manager:
            sid = manager.open("asia")["session"]
            entry = manager._sessions[sid].entry
            registry.get("cancer")  # evicts the pinned asia entry
            assert entry.retired is True
            assert entry.engine._closed is False
            # The session still answers from the retired entry's tree.
            assert manager.update(sid, evidence={"smoke": "yes"},
                                  targets=("lung",))["posteriors"]
            manager.close(sid)
            assert entry.engine._closed is True

    def test_close_all_is_idempotent_and_unpins(self):
        registry = ModelRegistry()
        manager = SessionManager(registry)
        sid = manager.open("asia")["session"]
        entry = manager._sessions[sid].entry
        manager.close_all()
        manager.close_all()  # idempotent
        assert entry.pins == 0
        with pytest.raises(SessionError, match="shut down"):
            manager.open("asia")
        registry.close()
        assert entry.engine._closed is True

    def test_open_rejects_sampling_engines_and_unpins(self):
        with ModelRegistry() as registry, SessionManager(registry) as manager:
            with pytest.raises(QueryError, match="exact junction-tree"):
                manager.open("asia", engine="approx")
            entry = registry.get("asia", engine="approx")
            assert entry.pins == 0  # the failed open released its pin

    def test_metrics_and_stats_wiring(self):
        metrics = ServiceMetrics()
        with ModelRegistry() as registry, \
                SessionManager(registry, metrics=metrics,
                               max_sessions=1) as manager:
            first = manager.open("asia")["session"]
            manager.update(first, evidence={"smoke": "yes"},
                           targets=("lung",))
            manager.open("asia")  # evicts first (count cap is 1)
            snap = metrics.snapshot()["sessions"]
            assert snap["opened"] == 2
            assert snap["evicted"] == 1
            assert snap["open"] == 1
            assert snap["updates"] == 1
            assert snap["queries"] == 1
            assert snap["mean_delta_size"] == pytest.approx(1.0)
            stats = manager.stats()
            assert stats["open"] == 1
            assert stats["bytes"] > 0

    def test_distinct_sessions_update_concurrently(self, asia):
        with ModelRegistry() as registry, SessionManager(registry) as manager:
            sids = [manager.open("asia")["session"] for _ in range(4)]
            barrier = threading.Barrier(4)
            results: dict[str, dict] = {}

            def worker(sid: str, state: str) -> None:
                barrier.wait()
                results[sid] = manager.update(
                    sid, evidence={"smoke": state}, targets=("lung",))

            threads = [threading.Thread(target=worker,
                                        args=(sid, "yes" if i % 2 else "no"))
                       for i, sid in enumerate(sids)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for i, sid in enumerate(sids):
                want, _ = _fastbni_reference(
                    asia, {"smoke": "yes" if i % 2 else "no"}, "lung")
                np.testing.assert_allclose(results[sid]["posteriors"]["lung"],
                                           want, atol=1e-12)


# ---------------------------------------------------------------------- cold
@needs_native
class TestColdSessions:
    """A session keeps its evidence and no engine: every read is a cold
    whole-case call (from the calibrated prior, on native kernels)."""

    def test_cold_rebuilds_state_every_operation(self, monkeypatch):
        """A session calls the model's ``infer_cases`` once per read (an
        edit without targets reads nothing)."""
        with ModelRegistry(kernels="native") as registry, \
                SessionManager(registry) as cold:
            entry = registry.get("asia")
            assert entry.one_foreign_call
            calls = []
            infer_cases = entry.engine.infer_cases
            monkeypatch.setattr(
                entry.engine, "infer_cases",
                lambda *args: calls.append(args) or infer_cases(*args))
            sid = cold.open("asia")["session"]
            cold.update(sid, evidence={"smoke": "yes"}, targets=("lung",))
            cold.update(sid, evidence={"xray": "yes"})
            cold.query(sid, targets=("lung", "bronc"))
            assert calls == [([{"smoke": 0}], ("lung",)),
                             ([{"smoke": 0, "xray": 0}], ("lung", "bronc"))]

    def test_cold_retract_semantics_preserved(self):
        """Merge/retract bookkeeping is the same on every kernel backend."""
        with ModelRegistry() as fused, \
                ModelRegistry(kernels="native") as native, \
                SessionManager(fused) as on_fused, \
                SessionManager(native) as on_native, \
                FastBNI(fused.get("asia").net, mode="seq") as cold:
            want = cold.infer({"smoke": "yes"}, ("lung",))
            for manager in (on_fused, on_native):
                sid = manager.open(
                    "asia", evidence={"smoke": "yes", "asia": "yes"}
                )["session"]
                payload = manager.update(sid, retract=("asia",),
                                         targets=("lung",))
                assert payload["evidence_vars"] == 1
                assert payload["delta"]["retracted"] == ["asia"]
                np.testing.assert_allclose(payload["posteriors"]["lung"],
                                           want.posteriors["lung"],
                                           atol=1e-12)

    def test_server_native_session_wiring(self):
        """``serve --kernels native`` serves sessions over the wire and
        answers as a fused server does."""
        def one_walk(port: int):
            with ServiceClient(port=port) as client:
                with client.session("asia",
                                    evidence={"smoke": "yes"}) as sess:
                    result = sess.update(evidence={"asia": "yes"},
                                         targets=["lung"])
                    return result["posteriors"]["lung"]

        async def go():
            fused = InferenceServer(port=0, kernels="fused")
            native = InferenceServer(port=0, kernels="native")
            answers = {}
            for name, server in (("fused", fused), ("native", native)):
                await server.start()
                try:
                    answers[name] = await asyncio.to_thread(one_walk,
                                                            server.port)
                    answers[name + "_one_call"] = (
                        server.registry.get("asia").one_foreign_call)
                finally:
                    await server.stop()
            return answers

        answers = run(go())
        assert answers["native_one_call"] and not answers["fused_one_call"]
        np.testing.assert_allclose(answers["native"], answers["fused"],
                                   atol=1e-12)


# ------------------------------------------------------------ oracle walk
#: One jointly impossible set of findings per network (deterministic CPTs:
#: asia's ``either`` is lung OR tub, sprinkler's grass is dry when neither
#: the sprinkler nor the rain wets it).
IMPOSSIBLE = {"asia": {"either": "no", "lung": "yes"},
              "sprinkler": {"Sprinkler": "off", "Rain": "no",
                            "WetGrass": "yes"}}


@pytest.mark.parametrize("kernels", [
    "numpy", "fused", pytest.param("native", marks=needs_native)])
@pytest.mark.parametrize("network", sorted(IMPOSSIBLE))
class TestSessionWalkOracle:
    """Randomized session walks on every kernel backend, pinned to
    exhaustive enumeration at 1e-12: open with evidence, add, change,
    retract, replace, an impossible finding mid-walk (its read raises
    :class:`EvidenceError`) and a feasible update that answers again."""

    @staticmethod
    def _walk(net, rng):
        """``(update kwargs, evidence after it)`` per step of one walk."""
        names = list(net.variable_names)

        def state(name):
            var = net.variable(name)
            return var.states[int(rng.integers(var.cardinality))]

        def feasible():
            (case,) = generate_test_cases(net, 1, observed_fraction=0.5,
                                          rng=rng)
            return {n: net.variable(n).states[net.variable(n).state_index(s)]
                    for n, s in case.evidence.items()}

        evidence = feasible()
        opened = dict(evidence)
        steps = []

        def step(**edit):
            new = {} if edit.get("replace") else dict(evidence)
            for name in edit.get("retract", ()):
                new.pop(name)
            new.update(edit.get("evidence", {}))
            steps.append((edit, new))
            return new

        free = [n for n in names if n not in evidence]
        if free:
            added = str(rng.choice(free))
            evidence = step(evidence={added: state(added)})
        changed = str(rng.choice(list(evidence)))
        others = [s for s in net.variable(changed).states
                  if s != evidence[changed]]
        evidence = step(evidence={changed: str(rng.choice(others))})
        evidence = step(retract=(str(rng.choice(list(evidence))),))
        evidence = step(evidence=feasible(), replace=True)
        evidence = step(evidence=IMPOSSIBLE[net.name])
        evidence = step(evidence=feasible(), replace=True)
        return opened, steps

    def test_walk_matches_enumeration(self, kernels, network):
        net = load_dataset(network)
        oracle = EnumerationEngine(net)
        with pytest.raises(EvidenceError):
            oracle.infer(IMPOSSIBLE[network])
        with ModelRegistry(kernels=kernels) as registry, \
                SessionManager(registry) as manager:
            registry.register(network, net)
            impossible_reads = 0
            for seed in range(6):
                rng = np.random.default_rng(seed)
                opened, steps = self._walk(net, rng)
                targets = tuple(str(n) for n in rng.choice(
                    list(net.variable_names), 2, replace=False))
                sid = manager.open(network, evidence=opened)["session"]
                reads = [(lambda: manager.query(sid, targets), opened)]
                reads += [((lambda edit=edit: manager.update(
                    sid, targets=targets, **edit)), evidence)
                    for edit, evidence in steps]
                for read, evidence in reads:
                    try:
                        want = oracle.infer(evidence, targets)
                    except EvidenceError:
                        impossible_reads += 1
                        with pytest.raises(EvidenceError):
                            read()
                        continue
                    got = read()
                    for name in targets:
                        np.testing.assert_allclose(
                            got["posteriors"][name], want.posteriors[name],
                            atol=1e-12, rtol=0)
                    assert got["log_evidence"] == pytest.approx(
                        want.log_evidence, abs=1e-12)
                assert manager._sessions[sid].updates == len(steps)
                manager.close(sid)
            assert impossible_reads >= 6


# ------------------------------------------------- all-or-nothing updates
@pytest.mark.parametrize("kernels", [
    "fused", pytest.param("native", marks=needs_native)])
class TestRejectedUpdates:
    """An update that cannot be applied changes nothing, on both session
    paths; impossible evidence is applied and reported by the read."""

    def test_rejected_update_changes_nothing(self, kernels):
        with ModelRegistry(kernels=kernels) as registry, \
                SessionManager(registry) as manager, \
                FastBNI(registry.get("asia").net, mode="seq") as cold:
            sid = manager.open("asia", evidence={"smoke": "yes"})["session"]
            session = manager._sessions[sid]
            charged = session.entry.session_bytes
            for bad in ({"evidence": {"xray": "yes"}, "retract": ("smoke",),
                         "targets": ("nope",)},
                        {"evidence": {"xray": "yes"}, "retract": ("nope",),
                         "targets": ("lung",)},
                        {"evidence": {"xray": "maybe"},
                         "targets": ("lung",)},
                        {"evidence": {"nope": "yes"}, "replace": True}):
                with pytest.raises(ReproError):
                    manager.update(sid, **bad)
                assert session.evidence == {"smoke": 0}
                assert session.updates == 0
                assert session.entry.session_bytes == charged
            got = manager.update(sid, evidence={"xray": "yes"},
                                 targets=("lung",))
            assert got["delta"]["added"] == ["xray"]
            assert got["delta"]["size"] == 1
            want = cold.infer({"smoke": "yes", "xray": "yes"}, ("lung",))
            np.testing.assert_allclose(got["posteriors"]["lung"],
                                       want.posteriors["lung"], atol=1e-12)
            assert got["log_evidence"] == pytest.approx(want.log_evidence,
                                                        abs=1e-12)

    def test_impossible_evidence_applies_and_the_session_recovers(
            self, kernels):
        with ModelRegistry(kernels=kernels) as registry, \
                SessionManager(registry) as manager, \
                FastBNI(registry.get("asia").net, mode="seq") as cold:
            sid = manager.open("asia")["session"]
            # either = tub OR lung: "either = no" with "lung = yes" has
            # probability zero.
            with pytest.raises(EvidenceError, match="zero probability"):
                manager.update(sid, evidence={"either": "no", "lung": "yes"},
                               targets=("dysp",))
            session = manager._sessions[sid]
            assert session.updates == 1 and len(session.evidence) == 2
            with pytest.raises(EvidenceError, match="zero probability"):
                manager.query(sid, targets=("dysp",))
            got = manager.update(sid, retract=("lung",), targets=("tub",))
            assert got["evidence_vars"] == 1
            want = cold.infer({"either": "no"}, ("tub",))
            np.testing.assert_allclose(got["posteriors"]["tub"],
                                       want.posteriors["tub"], atol=1e-12)


# ---------------------------------------------------------------------- wire
class TestSessionOpsOverWire:
    def test_session_lifecycle_via_client(self, asia):
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                return await asyncio.to_thread(self._sync_session,
                                               server.port)
            finally:
                await server.stop()

        update, query, closed, stats, exc = run(scenario())
        want_post, want_lev = _fastbni_reference(
            asia, {"smoke": "yes", "asia": "yes"}, "lung")
        np.testing.assert_allclose(update["posteriors"]["lung"], want_post,
                                   atol=1e-9)
        assert update["log_evidence"] == pytest.approx(want_lev, abs=1e-9)
        assert query["served_by"] == "session"
        assert closed["closed"] is True
        assert stats["sessions"]["table"]["open"] == 2
        # Operations after close surface the explicit eviction error.
        assert exc.error_type == "SessionError"
        assert exc.code == "session_closed"

    @staticmethod
    def _sync_session(port: int):
        with ServiceClient(port=port) as client:
            with client.session("asia", evidence={"smoke": "yes"}) as session:
                update = session.update(evidence={"asia": "yes"},
                                        targets=["lung"])
                query = session.query(targets=["bronc"])
                # A second session stays open across the first's close.
                other = client.session_open("asia")
                stats = client.stats()
                closed = session.close()
            try:
                client.session_query(session.id, targets=["lung"])
                raise AssertionError("closed session answered")
            except SessionError as raised:
                exc = raised
            client.session_close(other["session"])
        return update, query, closed, stats, exc

    def test_session_error_code_on_the_envelope(self):
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(json.dumps(
                    {"id": 1, "op": "session_query",
                     "session": "never-issued"}).encode() + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
            finally:
                await server.stop()
            return response

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"]["type"] == "SessionError"
        assert response["error"]["code"] == "session_unknown"


# ----------------------------------------------------------- lifecycle fixes
class TestGetPinnedRace:
    def test_mpe_survives_concurrent_eviction(self, asia, monkeypatch):
        """Regression: mpe pinned its entry only *after* a separate get,
        so an eviction in the gap closed the engine mid-run."""
        import repro.jt.mpe as mpe_module

        real_mpe = mpe_module.most_probable_explanation
        observed: dict = {}

        async def scenario():
            server = InferenceServer(port=0)

            def evicting_mpe(tree, evidence):
                # An eviction lands while mpe holds the entry: the pin
                # taken atomically with the lookup keeps the engine open.
                server.registry.evict("asia")
                entry = next(iter(server.registry._entries.values()), None)
                observed["loaded_after_evict"] = server.registry.loaded()
                del entry
                return real_mpe(tree, evidence)

            monkeypatch.setattr(mpe_module, "most_probable_explanation",
                                evicting_mpe)
            await server.start()
            try:
                def attempt():
                    with ServiceClient(port=server.port) as client:
                        return client.mpe("asia", {"smoke": "yes"})
                return await asyncio.to_thread(attempt)
            finally:
                await server.stop()

        got = run(scenario())
        assert observed["loaded_after_evict"] == ()
        assert got["assignment"]["smoke"] == "yes"
        assert got["log_probability"] < 0

    def test_get_pinned_is_atomic_and_lease_shaped(self):
        with ModelRegistry(max_bytes=1) as registry:
            entry = registry.get_pinned("asia")
            try:
                registry.get("cancer")  # would have closed an unpinned asia
                assert entry.retired is True
                assert entry.engine._closed is False
            finally:
                registry.unpin(entry)
            assert entry.engine._closed is True


def _reference_jsonable(obj):
    """The element-by-element walk ``_jsonable``'s 1-D fast path skips."""
    if isinstance(obj, np.ndarray):
        return _reference_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _reference_jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    return obj


def _wire_payloads():
    """Nested dicts/lists/tuples of scalars (NaN/±inf included) and 0-d,
    1-D and 2-D float64/float32/int64/bool arrays."""
    floats = st.floats(allow_nan=True, allow_infinity=True)
    arrays = st.one_of(
        st.lists(floats, max_size=6).map(
            lambda xs: np.array(xs, dtype=np.float64)),
        st.lists(st.floats(width=32), max_size=6).map(
            lambda xs: np.array(xs, dtype=np.float32)),
        st.lists(st.integers(-2**40, 2**40), max_size=6).map(
            lambda xs: np.array(xs, dtype=np.int64)),
        st.lists(st.booleans(), max_size=6).map(
            lambda xs: np.array(xs, dtype=bool)),
        st.lists(floats, min_size=4, max_size=4).map(
            lambda xs: np.array(xs).reshape(2, 2)),
        floats.map(np.array),
        st.booleans().map(np.array),
    )
    scalars = st.one_of(floats, floats.map(np.float64),
                        st.integers(-99, 99).map(np.int64), st.integers(),
                        st.booleans(), st.none(), st.text(max_size=3))
    return st.recursive(
        st.one_of(scalars, arrays),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=3), inner, max_size=4)),
        max_leaves=12)


class TestNonFiniteResponses:
    def test_jsonable_sanitises_non_finite_floats(self):
        payload = _jsonable({
            "ess": float("nan"),
            "bound": float("inf"),
            "nested": [np.float64("nan"), np.array([1.0, float("-inf")])],
            "fine": np.float64(0.25),
        })
        assert payload == {"ess": None, "bound": None,
                           "nested": [None, [1.0, None]], "fine": 0.25}
        json.dumps(payload, allow_nan=False)  # must not raise

    def test_numpy_booleans_encode(self):
        """Regression: ``np.bool_`` is neither floating nor integer, so
        the reply became an InternalError."""
        line = InferenceServer._encode({
            "id": 1, "ok": True,
            "result": _jsonable({"a": np.bool_(True), "b": np.str_("x")})})
        assert json.loads(line) == {"id": 1, "ok": True,
                                    "result": {"a": True, "b": "x"}}

    @settings(max_examples=200, deadline=None)
    @given(result=_wire_payloads())
    def test_fast_path_is_byte_identical(self, result):
        """Replies equal the element-by-element walk's, byte for byte."""
        def encode(converted):
            return InferenceServer._encode(
                {"id": 1, "ok": True, "result": converted})

        assert encode(_jsonable(result)) == encode(_reference_jsonable(result))

    def test_nan_result_field_still_answers_client(self, monkeypatch):
        """Regression: a NaN diagnostic made json.dumps(allow_nan=False)
        raise after dispatch, so no response line was ever written."""
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "_result_fields",
                            lambda result: {"engine": "exact",
                                            "ess": float("nan")})

        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(json.dumps(
                    {"id": 1, "op": "query", "network": "asia",
                     "evidence": {"smoke": "yes"},
                     "targets": ["lung"]}).encode() + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                writer.close()
            finally:
                await server.stop()
            return json.loads(line)

        response = run(scenario())
        assert response["ok"] is True
        assert response["result"]["ess"] is None

    def test_unserializable_payload_yields_internal_error(self, monkeypatch):
        """The _write fallback: even a payload _jsonable cannot fix turns
        into an InternalError envelope, never a silent dropped line."""
        import repro.service.server as server_module

        monkeypatch.setattr(
            server_module, "_result_fields",
            lambda result: {"engine": {"unserializable"}})  # a set

        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(json.dumps(
                    {"id": 7, "op": "query", "network": "asia",
                     "evidence": {"smoke": "yes"}}).encode() + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                writer.close()
            finally:
                await server.stop()
            return json.loads(line)

        response = run(scenario())
        assert response["ok"] is False
        assert response["id"] == 7
        assert response["error"]["type"] == "InternalError"


class TestRegistryCloseHonoursPins:
    def test_close_defers_engine_close_to_last_unpin(self):
        registry = ModelRegistry()
        entry = registry.get_pinned("asia")
        registry.close()
        # Shutdown raced a live pin: the entry is retired, not closed.
        assert entry.retired is True
        assert entry.engine._closed is False
        result = entry.engine.infer_cases([{"smoke": "yes"}])
        assert len(result) == 1
        registry.unpin(entry)
        assert entry.engine._closed is True


class TestRunServerTeardown:
    @staticmethod
    def _service_threads() -> set[str]:
        return {t.name for t in threading.enumerate()
                if t.name.startswith(("fastbni-flush", "fastbni-session"))}

    def test_bind_failure_leaks_no_executor_threads(self):
        """Regression: a failing start() skipped stop(), leaving the
        batcher flush workers and session workers alive forever."""
        before = self._service_threads()
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(OSError):
                run(run_server("127.0.0.1", port))
        finally:
            blocker.close()
        assert self._service_threads() == before

    def test_bad_preload_leaks_no_executor_threads(self):
        before = self._service_threads()
        with pytest.raises(Exception, match="unknown network"):
            run(run_server("127.0.0.1", 0,
                           preload=("definitely-not-a-network",)))
        assert self._service_threads() == before
