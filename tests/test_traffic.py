"""Tests for the traffic-trace harness (generate / save / replay / record).

The generator's properties — per-seed determinism, JSON round-trip
identity, mix-ratio apportionment — are what make a benchmark number
reproducible, so they are pinned with hypothesis across random seeds
and mixes, not just one example.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.traffic import (DEFAULT_MIX, TrafficRecorder, TrafficTrace,
                                 _allocate, generate_trace, load_trace,
                                 render_trace, replay_trace_async, save_trace)
from repro.errors import QueryError

#: A fast mix: no dense stream, so no generated-grid compile in tests
#: that stand up a live server.
FAST_MIX = {"zipf": 0.5, "burst": 0.2, "session": 0.3}


def run(coro):
    return asyncio.run(coro)


def _same_answer(a: dict, b: dict, atol: float = 1e-12) -> bool:
    """Two wire answers over the same variables, equal to ``atol``."""
    pa, pb = a["posteriors"], b["posteriors"]
    la, lb = a["log_evidence"], b["log_evidence"]
    return (pa.keys() == pb.keys() and (la is None) == (lb is None)
            and (la is None or abs(la - lb) <= atol)
            and all(np.allclose(pa[k], pb[k], rtol=0.0, atol=atol)
                    for k in pa))


# ---------------------------------------------------------------- apportion
class TestAllocate:
    def test_counts_sum_exactly(self):
        counts = _allocate(97, DEFAULT_MIX)
        assert sum(counts.values()) == 97

    def test_each_within_one_of_quota(self):
        mix = {"a": 0.31, "b": 0.42, "c": 0.27}
        counts = _allocate(113, mix)
        for key, frac in mix.items():
            assert abs(counts[key] - 113 * frac) < 1.0

    def test_zero_total_rejected(self):
        with pytest.raises(QueryError):
            _allocate(10, {"a": 0.0})

    @given(requests=st.integers(1, 500),
           weights=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_apportionment_properties(self, requests, weights):
        mix = {f"s{i}": w for i, w in enumerate(weights)}
        counts = _allocate(requests, mix)
        assert sum(counts.values()) == requests
        total = sum(mix.values())
        for key, weight in mix.items():
            assert abs(counts[key] - requests * weight / total) < 1.0


# ---------------------------------------------------------------- generator
class TestGenerateTrace:
    def test_deterministic_per_seed(self):
        a = generate_trace(seed=11, requests=60)
        b = generate_trace(seed=11, requests=60)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = generate_trace(seed=1, requests=60)
        b = generate_trace(seed=2, requests=60)
        assert a.to_json() != b.to_json()

    def test_event_budget_exact(self):
        trace = generate_trace(seed=0, requests=77)
        assert len(trace.events) == 77

    def test_streams_cover_requested_mix(self):
        trace = generate_trace(seed=3, requests=100)
        counts = trace.mix_counts()
        assert set(counts) == set(DEFAULT_MIX)
        for stream, frac in DEFAULT_MIX.items():
            assert abs(counts[stream] - 100 * frac) < 1.0

    def test_events_sorted_by_arrival(self):
        trace = generate_trace(seed=5, requests=80)
        times = [e["t_ms"] for e in trace.events]
        assert times == sorted(times)

    def test_session_walks_are_coherent(self):
        """Per session id: opens first, closes last, updates between."""
        trace = generate_trace(seed=7, requests=120)
        walks: dict[str, list[str]] = {}
        for event in trace.events:
            sid = event.get("session")
            if sid is not None:
                walks.setdefault(sid, []).append(event["op"])
        assert walks, "default mix should include session walks"
        for sid, ops in walks.items():
            assert ops[0] == "session_open", sid
            assert "session_open" not in ops[1:], sid
            if "session_close" in ops:
                assert ops[-1] == "session_close", sid

    def test_check_flags_mark_deterministic_streams(self):
        trace = generate_trace(seed=9, requests=100)
        for event in trace.events:
            stream = event["stream"]
            if stream in ("zipf", "burst"):
                assert event["check"] and event["engine"] == "exact"
            elif stream in ("dense", "approx"):
                assert not event["check"]
            elif event["op"] in ("session_open", "session_close"):
                assert not event["check"]

    def test_zipf_reuses_hot_evidence(self):
        """The top evidence pattern must dominate its stream."""
        trace = generate_trace(seed=13, requests=200)
        zipf = [json.dumps(e["evidence"], sort_keys=True)
                for e in trace.events if e["stream"] == "zipf"]
        top = max(zipf.count(v) for v in set(zipf))
        assert top > len(zipf) / len(set(zipf))

    def test_dense_spec_embedded_and_buildable(self):
        trace = generate_trace(seed=1, requests=60)
        assert trace.networks["dense"]["kind"] == "grid"
        nets = trace.build_networks()
        assert "dense" in nets and "asia" in nets
        assert len(nets["dense"].variables) == 100

    def test_bad_requests_rejected(self):
        with pytest.raises(QueryError):
            generate_trace(seed=0, requests=0)

    def test_per_stream_networks(self):
        trace = generate_trace(seed=4, requests=60, network="asia",
                               zipf_network="cancer",
                               session_network="sprinkler")
        assert {"asia", "cancer", "sprinkler"} <= set(trace.networks)
        assert trace.config["zipf_network"] == "cancer"
        for event in trace.events:
            if event["stream"] == "zipf":
                assert event["network"] == "cancer"
            elif event["stream"] in ("burst", "approx"):
                assert event["network"] == "asia"
            elif event["op"] == "session_open":
                assert event["network"] == "sprinkler"
        nets = trace.build_networks()
        assert len(nets["cancer"].variables) == 5

    @given(seed=st.integers(0, 2**32 - 1), requests=st.integers(1, 80))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_determinism_property(self, seed, requests):
        a = generate_trace(seed=seed, requests=requests, mix=FAST_MIX)
        b = generate_trace(seed=seed, requests=requests, mix=FAST_MIX)
        assert a.to_json() == b.to_json()
        assert len(a.events) == requests


# --------------------------------------------------------------- round trip
class TestSaveLoad:
    def test_round_trip_identity(self, tmp_path):
        trace = generate_trace(seed=21, requests=60)
        path = save_trace(trace, tmp_path / "trace.json")
        loaded = load_trace(path)
        assert loaded.to_json() == trace.to_json()
        assert loaded == trace

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_property(self, seed, tmp_path_factory):
        trace = generate_trace(seed=seed, requests=30, mix=FAST_MIX)
        path = tmp_path_factory.mktemp("traces") / "t.json"
        save_trace(trace, path)
        assert load_trace(path).to_json() == trace.to_json()

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(QueryError):
            load_trace(path)

    def test_render_summarizes(self):
        trace = generate_trace(seed=2, requests=40)
        text = render_trace(trace)
        assert "events: 40" in text
        assert "zipf" in text and "session" in text


# ------------------------------------------------------------------- replay
class TestReplay:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(seed=17, requests=40, mix=FAST_MIX)

    def test_replay_against_live_server(self, trace):
        async def go():
            from repro.service import InferenceServer

            server = InferenceServer(port=0)
            for name, net in trace.build_networks().items():
                server.registry.register(name, net)
            await server.start()
            try:
                return await replay_trace_async(
                    trace, "127.0.0.1", server.port, concurrency=3)
            finally:
                await server.stop()

        result = run(go())
        assert result.requests == len(trace.events)
        assert not result.errors
        checked = sum(1 for e in trace.events
                      if e.get("check") and e["op"] != "session_close")
        assert len(result.answers) == checked
        assert result.rps > 0
        assert result.latency_quantile(0.99) >= result.latency_quantile(0.5)

    def test_replay_deterministic_answers(self, trace):
        """Two replays of the same trace agree bit-for-bit on checked
        events (the property the ablation matrix builds on)."""
        async def go():
            from repro.service import InferenceServer

            server = InferenceServer(port=0)
            for name, net in trace.build_networks().items():
                server.registry.register(name, net)
            await server.start()
            try:
                first = await replay_trace_async(
                    trace, "127.0.0.1", server.port, concurrency=3)
                second = await replay_trace_async(
                    trace, "127.0.0.1", server.port, concurrency=3)
                return first, second
            finally:
                await server.stop()

        first, second = run(go())
        assert set(first.answers) == set(second.answers)
        for idx in first.answers:
            assert first.answers[idx] == second.answers[idx]

    def test_bad_concurrency_rejected(self, trace):
        with pytest.raises(QueryError):
            run(replay_trace_async(trace, "127.0.0.1", 1, concurrency=0))


# ------------------------------------------------------------------- record
class TestRecorder:
    def test_recorded_traffic_replays_identically(self):
        """Drive a server through the proxy, snapshot the recording,
        replay it against a *fresh* server: same answers."""
        source = generate_trace(seed=23, requests=20, mix=FAST_MIX)

        async def go():
            from repro.service import InferenceServer

            upstream = InferenceServer(port=0)
            for name, net in source.build_networks().items():
                upstream.registry.register(name, net)
            await upstream.start()
            recorder = TrafficRecorder("127.0.0.1", upstream.port)
            await recorder.start()
            try:
                live = await replay_trace_async(
                    source, "127.0.0.1", recorder.port, concurrency=2)
                recorded = recorder.trace(seed=99)

                fresh = InferenceServer(port=0)
                for name, net in source.build_networks().items():
                    fresh.registry.register(name, net)
                await fresh.start()
                try:
                    replayed = await replay_trace_async(
                        recorded, "127.0.0.1", fresh.port, concurrency=2)
                finally:
                    await fresh.stop()
                return live, recorded, replayed
            finally:
                await recorder.stop()
                await upstream.stop()

        live, recorded, replayed = run(go())
        assert not live.errors
        assert not replayed.errors
        assert len(recorded.events) == len(source.events)
        # Recorded session ids are logical (r0000…): replay remapped
        # them onto fresh server-issued ids and every live answer has its
        # own replayed one at 1e-12, the cross-path contract.  Not bit for
        # bit: which tier answers a request (memo / NumPy delta / cold
        # batch) follows arrival timing, and the tiers agree to rounding
        # only.  The recording is in proxy-arrival order, so events pair
        # by answer, not by index.
        assert len(replayed.answers) == len(live.answers) > 0
        unmatched = list(replayed.answers.values())
        for idx, answer in live.answers.items():
            twin = next((other for other in unmatched
                         if _same_answer(answer, other)), None)
            assert twin is not None, (idx, answer)
            unmatched.remove(twin)

    def test_recorded_trace_round_trips(self, tmp_path):
        source = generate_trace(seed=29, requests=10, mix={"zipf": 1.0})

        async def go():
            from repro.service import InferenceServer

            upstream = InferenceServer(port=0)
            for name, net in source.build_networks().items():
                upstream.registry.register(name, net)
            await upstream.start()
            recorder = TrafficRecorder("127.0.0.1", upstream.port)
            await recorder.start()
            try:
                await replay_trace_async(source, "127.0.0.1", recorder.port,
                                         concurrency=2)
                return recorder.trace()
            finally:
                await recorder.stop()
                await upstream.stop()

        recorded = run(go())
        path = save_trace(recorded, tmp_path / "recorded.json")
        assert load_trace(path).to_json() == recorded.to_json()
        assert recorded.mix_counts() == {"recorded": 10}

    def test_unrecorded_ops_pass_through(self):
        async def go():
            from repro.service import InferenceServer

            upstream = InferenceServer(port=0)
            upstream.preload(["asia"])
            await upstream.start()
            recorder = TrafficRecorder("127.0.0.1", upstream.port)
            await recorder.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", recorder.port)
                writer.write(json.dumps({"id": 1, "op": "health"}).encode()
                             + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                return response, recorder.trace()
            finally:
                await recorder.stop()
                await upstream.stop()

        response, trace = run(go())
        assert response["ok"]
        assert trace.events == []


# ---------------------------------------------------------------- TrafficTrace
class TestTrafficTrace:
    def test_from_json_requires_schema(self):
        with pytest.raises(QueryError):
            TrafficTrace.from_json({"schema": "nope", "seed": 0,
                                    "config": {}, "networks": {},
                                    "events": []})

    def test_unknown_network_kind_rejected(self):
        trace = TrafficTrace(seed=0, config={}, events=[],
                             networks={"x": {"kind": "quantum"}})
        with pytest.raises(QueryError):
            trace.build_networks()
