"""Tests for streaming evidence sessions + the engine-lifecycle bugfix sweep.

Covers the :class:`~repro.service.sessions.SessionManager` table
(open/update/query/close, eviction semantics, byte accounting, pin
integration), the session ops over the wire, and regression tests for
the four lifecycle fixes that shipped with sessions:

1. ``get_pinned`` closes the get-then-pin eviction race (mpe/info/
   query_batch no longer lose their engine to a concurrent cold load);
2. non-finite floats are written as ``null`` and ``_encode`` falls back
   to an InternalError envelope — a client never hangs on a response
   line that never comes;
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
from repro.service.server import encode_line, run_server


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
        """Session eviction under the table bound is an explicit error,
        never a hang or a silent restart (acceptance).  Sessions are
        charged a fixed size, so the count cap is the one bound."""
        with ModelRegistry() as registry, \
                SessionManager(registry, max_sessions=1) as manager:
            first = manager.open("asia")["session"]
            second = manager.open("asia")["session"]
            # Opening the second evicted the LRU first (the newest always
            # survives, mirroring the registry's never-evict-MRU rule).
            assert manager.query(second)["served_by"] == "session"
            with pytest.raises(SessionError,
                               match="table full") as ei:
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

    def test_touched_old_session_survives_the_sweep(self):
        """A touch moves a session behind younger idle ones: the sweep
        evicts the idle prefix and stops at the touched session."""
        t = [0.0]
        with ModelRegistry() as registry, \
                SessionManager(registry, idle_ttl_s=10.0,
                               clock=lambda: t[0]) as manager:
            oldest = manager.open("asia")["session"]
            t[0] = 1.0
            idle = [manager.open("asia")["session"]]
            t[0] = 2.0
            idle.append(manager.open("asia")["session"])
            t[0] = 9.0
            manager.update(oldest, evidence={"smoke": "yes"})
            t[0] = 12.5  # idle ones unused 11.5s and 10.5s; oldest 3.5s
            assert manager.sweep() == 2
            assert manager.query(oldest)["evidence_vars"] == 1
            for sid in idle:
                with pytest.raises(SessionError, match="idle TTL"):
                    manager.query(sid)
            t[0] = 30.0  # every op sweeps: the next one finds oldest gone
            with pytest.raises(SessionError, match="idle TTL"):
                manager.query(oldest)
            assert manager.stats()["open"] == 0

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
        """A session calls the model's single-case ``infer`` once per read
        (an edit without targets reads nothing)."""
        with ModelRegistry(kernels="native") as registry, \
                SessionManager(registry) as cold:
            entry = registry.get("asia")
            assert entry.one_foreign_call
            calls = []
            infer = entry.engine.infer
            monkeypatch.setattr(
                entry.engine, "infer",
                lambda *args: calls.append(args) or infer(*args))
            sid = cold.open("asia")["session"]
            cold.update(sid, evidence={"smoke": "yes"}, targets=("lung",))
            cold.update(sid, evidence={"xray": "yes"})
            cold.query(sid, targets=("lung", "bronc"))
            assert calls == [({"smoke": 0}, ("lung",)),
                             ({"smoke": 0, "xray": 0}, ("lung", "bronc"))]

    def test_cold_retract_semantics_preserved(self):
        """Merge/retract bookkeeping is the same on every kernel backend."""
        with ModelRegistry(kernels="numpy") as staged, \
                ModelRegistry(kernels="native") as native, \
                SessionManager(staged) as on_numpy, \
                SessionManager(native) as on_native, \
                FastBNI(staged.get("asia").net, mode="seq") as cold:
            want = cold.infer({"smoke": "yes"}, ("lung",))
            for manager in (on_numpy, on_native):
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
        answers as a numpy server does."""
        def one_walk(port: int):
            with ServiceClient(port=port) as client:
                with client.session("asia",
                                    evidence={"smoke": "yes"}) as sess:
                    result = sess.update(evidence={"asia": "yes"},
                                         targets=["lung"])
                    return result["posteriors"]["lung"]

        async def go():
            staged = InferenceServer(port=0, kernels="numpy")
            native = InferenceServer(port=0, kernels="native")
            answers = {}
            for name, server in (("numpy", staged), ("native", native)):
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
        assert answers["native_one_call"] and not answers["numpy_one_call"]
        np.testing.assert_allclose(answers["native"], answers["numpy"],
                                   atol=1e-12)


# ------------------------------------------------------------ oracle walk
#: One jointly impossible set of findings per network (deterministic CPTs:
#: asia's ``either`` is lung OR tub, sprinkler's grass is dry when neither
#: the sprinkler nor the rain wets it).
IMPOSSIBLE = {"asia": {"either": "no", "lung": "yes"},
              "sprinkler": {"Sprinkler": "off", "Rain": "no",
                            "WetGrass": "yes"}}


@pytest.mark.parametrize("kernels", [
    "numpy", pytest.param("native", marks=needs_native)])
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
    "numpy", pytest.param("native", marks=needs_native)])
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

    def test_impossible_evidence_applies_and_session_recovers(
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


# --------------------------------------------------------------- dispatch
async def _send_all(port: int, requests: list[dict]) -> list[dict]:
    """Write every request line before reading any reply; the replies in
    the order they arrive."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"".join(json.dumps(r).encode() + b"\n" for r in requests))
    await writer.drain()
    replies = [json.loads(await reader.readline()) for _ in requests]
    writer.close()
    return replies


#: Opening evidence, then (update fields, evidence after it) per step: a
#: merge, a change, a retraction, a replace.  The table-only step (no
#: ``targets``) is pipelined between reads, so on numpy it must queue on
#: the flush worker behind the read ahead of it.
_WALK_OPEN = {"asia": "yes"}
_WALK = [
    ({"evidence": {"smoke": "yes"}, "targets": ["lung"]},
     {"asia": "yes", "smoke": "yes"}),
    ({"evidence": {"smoke": "no"}}, {"asia": "yes", "smoke": "no"}),
    ({"retract": ["asia"], "evidence": {"xray": "yes"}, "targets": ["lung"]},
     {"smoke": "no", "xray": "yes"}),
    ({"evidence": {"dysp": "yes"}, "replace": True, "targets": ["lung"]},
     {"dysp": "yes"}),
]

SERVING = ["numpy", pytest.param("native", marks=needs_native)]


class TestSessionDispatch:
    """Every op of a session runs where the batcher's fill-1 flush on its
    model would: on the loop when the engine answers a case in one foreign
    call (native, ``seq``), on the flush worker otherwise; one session's
    ops apply in arrival order."""

    @pytest.mark.parametrize("kernels, mode, on_loop", [
        ("numpy", "seq", False),
        pytest.param("native", "seq", True, marks=needs_native),
        pytest.param("native", "inter", False, marks=needs_native),
    ])
    def test_ops_run_where_a_fill_one_flush_would(self, kernels, mode,
                                                  on_loop, monkeypatch,
                                                  asia):
        async def scenario():
            server = InferenceServer(port=0, kernels=kernels, mode=mode,
                                     num_workers=2)
            server.preload(["asia"])
            engine = server.registry.get("asia").engine
            ran_on = {}

            def record(name, fn):
                def recorded(*args, **kwargs):
                    ran_on.setdefault(name, []).append(
                        threading.current_thread())
                    return fn(*args, **kwargs)
                return recorded

            monkeypatch.setattr(engine, "infer", record("infer", engine.infer))
            for name in ("update", "query", "close"):
                monkeypatch.setattr(server.sessions, name, record(
                    name, getattr(server.sessions, name)))
            await server.start()
            try:
                (opened,) = await _send_all(server.port, [
                    {"id": 1, "op": "session_open", "network": "asia"}])
                sid = opened["result"]["session"]
                replies = await _send_all(server.port, [
                    {"id": 2, "op": "session_update", "session": sid,
                     "evidence": {"smoke": "yes"}, "targets": ["lung"]},
                    {"id": 3, "op": "session_update", "session": sid,
                     "evidence": {"xray": "yes"}},
                    {"id": 4, "op": "session_query", "session": sid,
                     "targets": ["lung"]},
                    {"id": 5, "op": "session_close", "session": sid}])
                threads = {t.name for t in threading.enumerate()}
                batches = server.metrics.snapshot()["batches"]
            finally:
                await server.stop()
            return (threading.current_thread(), ran_on, replies, threads,
                    batches)

        loop_thread, ran_on, replies, threads, batches = run(scenario())
        assert all(reply["ok"] for reply in replies), replies
        assert {name: len(ts) for name, ts in ran_on.items()} == {
            "infer": 2, "update": 2, "query": 1, "close": 1}
        for ts in ran_on.values():
            if on_loop:
                assert all(t is loop_thread for t in ts)
            else:
                assert all(t.name.startswith("fastbni-flush") for t in ts)
        want = EnumerationEngine(asia).infer({"smoke": "yes", "xray": "yes"},
                                             ("lung",))
        np.testing.assert_allclose(replies[2]["result"]["posteriors"]["lung"],
                                   want.posteriors["lung"], atol=1e-12, rtol=0)
        # Reads never enter the batcher's queue, and no session pool runs.
        assert batches["count"] == 0 and batches["flushes_inline"] == 0
        assert not any(name.startswith("fastbni-session") for name in threads)

    @pytest.mark.parametrize("sample_rate", [0.0, 1.0])
    @pytest.mark.parametrize("kernels", SERVING)
    def test_pipelined_walk_applies_in_arrival_order(self, kernels,
                                                     sample_rate, asia):
        """Every line sent before any reply is read: the replies come back
        in order, each from the evidence the sequential walk gives, equal
        to enumeration and to a fresh engine at 1e-12."""
        async def scenario():
            server = InferenceServer(port=0, kernels=kernels,
                                     trace_sample_rate=sample_rate)
            server.preload(["asia"])
            await server.start()
            try:
                (opened,) = await _send_all(server.port, [
                    {"id": 0, "op": "session_open", "network": "asia",
                     "evidence": _WALK_OPEN}])
                sid = opened["result"]["session"]
                requests = [{"id": i, "op": "session_update",
                             "session": sid, **fields}
                            for i, (fields, _) in enumerate(_WALK, 1)]
                requests.append({"id": len(_WALK) + 1,
                                 "op": "session_query", "session": sid,
                                 "targets": ["lung", "bronc"]})
                requests.append({"id": len(_WALK) + 2,
                                 "op": "session_close", "session": sid})
                replies = await _send_all(server.port, requests)
            finally:
                await server.stop()
            return replies

        replies = run(scenario())
        assert [r["id"] for r in replies] == list(range(1, len(_WALK) + 3))
        assert all(r["ok"] for r in replies), replies
        oracle = EnumerationEngine(asia)
        reads = [(reply["result"], evidence, ["lung"])
                 for reply, (fields, evidence) in zip(replies, _WALK)
                 if "targets" in fields]
        reads.append((replies[len(_WALK)]["result"], _WALK[-1][1],
                      ["lung", "bronc"]))
        for (fields, evidence), reply in zip(_WALK, replies):
            assert reply["result"]["evidence_vars"] == len(evidence)
        with FastBNI(asia, mode="seq") as fresh:
            for got, evidence, targets in reads:
                for engine in (oracle, fresh):
                    want = engine.infer(evidence, tuple(targets))
                    for name in targets:
                        np.testing.assert_allclose(
                            got["posteriors"][name], want.posteriors[name],
                            atol=1e-12, rtol=0)
                    assert got["log_evidence"] == pytest.approx(
                        want.log_evidence, abs=1e-12)
        assert replies[-1]["result"]["closed"] is True

    def test_health_answers_while_session_open_compiles(self, monkeypatch):
        """A cold ``session_open`` compiles on the flush worker, as a
        query's lookup does; the loop keeps answering meanwhile."""
        async def scenario():
            server = InferenceServer(port=0)
            compiling, release = threading.Event(), threading.Event()
            compiled_on = []
            load = server.registry._load

            def gated_load(*args):
                compiled_on.append(threading.current_thread().name)
                compiling.set()
                release.wait(30)
                return load(*args)

            monkeypatch.setattr(server.registry, "_load", gated_load)
            await server.start()
            try:
                opening = asyncio.ensure_future(_send_all(server.port, [
                    {"id": 1, "op": "session_open", "network": "asia"}]))
                assert await asyncio.to_thread(compiling.wait, 30)
                (health,) = await _send_all(server.port,
                                            [{"id": 2, "op": "health"}])
                still_open = not opening.done()
                release.set()
                (opened,) = await opening
            finally:
                release.set()
                await server.stop()
            return health, still_open, opened, compiled_on

        health, still_open, opened, compiled_on = run(scenario())
        assert health["ok"] and still_open
        assert opened["ok"] and opened["result"]["network"] == "asia"
        assert compiled_on and compiled_on[0].startswith("fastbni-flush")

    @pytest.mark.parametrize("kernels", SERVING)
    def test_evicted_sessions_leave_no_server_state(self, kernels):
        """Regression: the server kept one ordering lock per session id
        and dropped it only on close or a SessionError, so every session
        evicted (LRU, TTL, byte budget) and never touched again leaked
        one.  No container the server holds may name an evicted id."""
        async def scenario():
            server = InferenceServer(port=0, kernels=kernels, max_sessions=2)
            server.preload(["asia"])
            await server.start()
            opened_ids = []
            try:
                for _ in range(50):
                    (opened,) = await _send_all(server.port, [
                        {"id": 1, "op": "session_open", "network": "asia"}])
                    opened_ids.append(opened["result"]["session"])
                    await _send_all(server.port, [
                        {"id": 2, "op": "session_update",
                         "session": opened_ids[-1],
                         "evidence": {"smoke": "yes"}, "targets": ["lung"]},
                        {"id": 3, "op": "session_update",
                         "session": opened_ids[-1],
                         "evidence": {"xray": "no"}}])
                held = [name for name, value in vars(server).items()
                        if isinstance(value, (dict, set, list))
                        and any(sid in value for sid in opened_ids)]
                return held, server.sessions.stats()["open"]
            finally:
                await server.stop()

        held, live = run(scenario())
        assert live == 2
        assert held == []


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
    """The element-by-element walk replies were once converted by, with a
    ``float32`` written as its own shortest text, as the encoder does."""
    if isinstance(obj, (np.ndarray, np.generic)) and obj.dtype == np.float32:
        shortest = [float(str(value)) for value in np.ravel(obj)]
        return _reference_jsonable(np.reshape(shortest, np.shape(obj)))
    if isinstance(obj, np.ndarray):
        return _reference_jsonable(obj.tolist())
    if isinstance(obj, str):
        # A ``str_`` is a str: its characters as they are (``.item()``
        # and ``str()`` drop trailing NULs, which the encoder keeps).
        return str.__str__(obj)
    if isinstance(obj, np.generic):
        return _reference_jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    return obj


def _reference_line(payload) -> dict:
    """What the stdlib encoding of the reference walk decodes to."""
    return json.loads(json.dumps(_reference_jsonable(payload),
                                 allow_nan=False))


def _wire_payloads():
    """Nested dicts/lists/tuples of scalars (NaN/±inf included) and 0-d,
    1-D, 2-D and strided float64/float32/int64/bool arrays."""
    floats = st.floats(allow_nan=True, allow_infinity=True)
    arrays = st.one_of(
        st.lists(floats, max_size=6).map(
            lambda xs: np.array(xs, dtype=np.float64)),
        st.lists(floats, max_size=6).map(
            lambda xs: np.array(xs, dtype=np.float64)[::2]),
        st.lists(st.floats(width=32), max_size=6).map(
            lambda xs: np.array(xs, dtype=np.float32)),
        st.lists(st.integers(-2**40, 2**40), max_size=6).map(
            lambda xs: np.array(xs, dtype=np.int64)),
        st.lists(st.booleans(), max_size=6).map(
            lambda xs: np.array(xs, dtype=bool)),
        st.lists(floats, min_size=4, max_size=4).map(
            lambda xs: np.array(xs).reshape(2, 2)),
        st.lists(floats, min_size=4, max_size=4).map(
            lambda xs: np.array(xs).reshape(2, 2).T),
        floats.map(np.array),
        st.booleans().map(np.array),
    )
    scalars = st.one_of(floats, floats.map(np.float64),
                        st.floats(width=32).map(np.float32),
                        st.integers(-99, 99).map(np.int64),
                        st.integers(-2**63, 2**64 - 1), st.booleans(),
                        st.booleans().map(np.bool_), st.none(),
                        st.text(max_size=3), st.text(max_size=3).map(np.str_))
    return st.recursive(
        st.one_of(scalars, arrays),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=3), inner, max_size=4)),
        max_leaves=12)


class TestNonFiniteResponses:
    def test_encoder_writes_non_finite_floats_as_null(self):
        line = InferenceServer._encode({"id": 1, "ok": True, "result": {
            "ess": float("nan"),
            "bound": float("inf"),
            "nested": [np.float64("nan"), np.array([1.0, float("-inf")])],
            "grid": np.array([[float("nan"), 0.5]]),
            "fine": np.float64(0.25),
        }})
        assert json.loads(line)["result"] == {
            "ess": None, "bound": None, "nested": [None, [1.0, None]],
            "grid": [[None, 0.5]], "fine": 0.25}

    def test_encode_line_writes_non_finite_scalars_as_null(self):
        """NaN and ±inf, as Python floats and as NumPy scalars, are each
        written as ``null``; finite neighbours keep their shortest text."""
        line = encode_line({
            "py": [float("nan"), float("inf"), float("-inf"), 0.5],
            "f64": [np.float64("nan"), np.float64("inf"),
                    np.float64("-inf")],
            "f32": [np.float32("nan"), np.float32("inf"),
                    np.float32("-inf"), np.float32(0.1)],
        })
        assert line == (b'{"py":[null,null,null,0.5],'
                        b'"f64":[null,null,null],'
                        b'"f32":[null,null,null,0.1]}\n')

    def test_non_finite_request_id_is_echoed_as_null(self):
        """The request parser takes the ``NaN`` / ``Infinity`` literals,
        and a reply echoes its request's id: it arrives as ``null``."""
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            lines = []
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                for literal in (b"NaN", b"Infinity", b"-Infinity"):
                    writer.write(b'{"id": ' + literal
                                 + b', "op": "health"}\n')
                    await writer.drain()
                    lines.append(await asyncio.wait_for(
                        reader.readline(), timeout=30))
                writer.close()
            finally:
                await server.stop()
            return lines

        for line in run(scenario()):
            assert line.startswith(b'{"id":null,"ok":true,'), line

    def test_numpy_booleans_encode(self):
        """Regression: ``np.bool_`` is neither floating nor integer, so
        the reply became an InternalError."""
        line = InferenceServer._encode({
            "id": 1, "ok": True,
            "result": {"a": np.bool_(True), "b": np.str_("x")}})
        assert json.loads(line) == {"id": 1, "ok": True,
                                    "result": {"a": True, "b": "x"}}

    @settings(max_examples=200, deadline=None)
    @given(result=_wire_payloads())
    def test_encoder_matches_the_stdlib_walk(self, result):
        """Replies decode equal (float ``==``) to the stdlib encoding of
        the element-by-element walk, one line each."""
        payload = {"id": 1, "ok": True, "result": result}
        line = InferenceServer._encode(payload)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert json.loads(line) == _reference_line(payload)

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
        """The _encode fallback: a payload the encoder rejects turns
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
