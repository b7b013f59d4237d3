"""Tests for the observability layer: tracing, hooks, exposition, wire ops."""

from __future__ import annotations

import asyncio
import json
import os
import threading

import pytest

from repro.errors import QueryError
from repro.obs import (ScheduleRecorder, Tracer, chrome_trace,
                       current_kernel_hooks, install_kernel_hooks,
                       render_prometheus)
from repro.obs.trace import TraceContext
from repro.service import InferenceServer, ServiceMetrics
from repro.service.client import ServiceClient


def run(coro):
    return asyncio.run(coro)


#: Multiplier for wall-clock timing budgets in this file.  Slow or noisy
#: CI boxes set REPRO_TEST_TIME_SLACK=3 (say) instead of editing tests.
TIME_SLACK = max(1.0, float(os.environ.get("REPRO_TEST_TIME_SLACK", "1.0")))


# ---------------------------------------------------------------- trace spans
class TestTraceContext:
    def test_root_span_open_at_construction(self):
        ctx = TraceContext(7, op="query")
        assert ctx.root.name == "request"
        assert ctx.root.attributes["op"] == "query"
        assert ctx.root.end == 0.0  # still open
        assert ctx.spans == [ctx.root]

    def test_span_parenting_defaults_to_root(self):
        ctx = TraceContext(1)
        outer = ctx.start_span("execute")
        inner = ctx.start_span("kernel", parent=outer)
        ctx.end_span(inner)
        ctx.end_span(outer, fill=3)
        assert outer.parent_id == ctx.root.span_id
        assert inner.parent_id == outer.span_id
        assert outer.attributes["fill"] == 3
        assert inner.end >= inner.start

    def test_context_manager_and_record(self):
        ctx = TraceContext(1)
        with ctx.span("parse", request_bytes=42) as span:
            pass
        assert span.end > 0
        assert span.attributes["request_bytes"] == 42
        shared = ctx.record("cache_lookup", 1.0, 1.5, served="memo")
        assert shared.duration_s() == pytest.approx(0.5)
        assert shared.attributes["served"] == "memo"

    def test_stage_total_and_to_dict(self):
        ctx = TraceContext(9)
        ctx.record("queue_wait", 0.0, 0.25)
        ctx.record("execute", 0.25, 1.0)
        assert ctx.stage_total_s(("queue_wait", "execute")) == pytest.approx(1.0)
        d = ctx.to_dict()
        assert d["trace_id"] == 9
        assert [s["name"] for s in d["spans"]] == ["request", "queue_wait",
                                                   "execute"]
        assert d["spans"][1]["duration_ms"] == pytest.approx(250.0)


# -------------------------------------------------------------------- tracer
class TestTracer:
    def test_rate_validation(self):
        with pytest.raises(QueryError, match="sample rate"):
            Tracer(1.5)
        with pytest.raises(QueryError, match="sample rate"):
            Tracer(-0.1)

    def test_rate_zero_never_allocates(self):
        tracer = Tracer(0.0)
        assert not tracer.enabled
        assert all(tracer.maybe_trace() is None for _ in range(50))
        assert tracer.stats()["requests_seen"] == 0

    def test_deterministic_every_nth_sampling(self):
        tracer = Tracer(0.25)  # period 4
        picks = [tracer.maybe_trace() is not None for _ in range(12)]
        assert picks == [False, False, False, True] * 3
        stats = tracer.stats()
        assert stats["requests_seen"] == 12
        assert stats["traces_sampled"] == 3

    def test_rate_one_samples_everything(self):
        tracer = Tracer(1.0)
        assert all(tracer.maybe_trace() is not None for _ in range(5))

    def test_trace_buffer_is_bounded(self):
        tracer = Tracer(1.0, max_traces=4)
        for i in range(10):
            ctx = tracer.maybe_trace()
            tracer.finish(ctx, op="query", latency_s=0.001)
        traces = tracer.traces()
        assert len(traces) == 4
        assert traces[-1]["trace_id"] == 10  # most recent kept

    def test_slow_log_keeps_top_k_over_threshold(self):
        tracer = Tracer(0.0, slow_log=4, slow_threshold_ms=10.0)
        for ms in (5, 30, 12, 80, 50, 9, 20, 70):
            tracer.finish(None, op="query", latency_s=ms / 1e3,
                          network="asia")
        entries = tracer.slow_queries()
        assert [round(e["latency_ms"]) for e in entries] == [80, 70, 50, 30]
        assert entries[0]["network"] == "asia"
        assert entries[0]["trace"] is None  # request was not sampled

    def test_slow_log_zero_disables_bookkeeping(self):
        tracer = Tracer(0.0, slow_log=0, slow_threshold_ms=0.0)
        tracer.finish(None, op="query", latency_s=5.0)
        assert tracer.slow_queries() == []
        assert tracer.stats()["slow_entries"] == 0

    def test_slow_entry_carries_trace_when_sampled(self):
        tracer = Tracer(1.0, slow_threshold_ms=0.0)
        ctx = tracer.maybe_trace()
        ctx.record("execute", 0.0, 0.1)
        tracer.finish(ctx, op="query", latency_s=0.2)
        (entry,) = tracer.slow_queries()
        assert entry["trace"]["trace_id"] == ctx.trace_id
        assert {"request", "execute"} <= {
            s["name"] for s in entry["trace"]["spans"]}

    def test_finish_stamps_root_attributes(self):
        tracer = Tracer(1.0)
        ctx = tracer.maybe_trace()
        tracer.finish(ctx, op="mpe", latency_s=0.05, ok=False,
                      network="cancer")
        (trace,) = tracer.traces()
        root = trace["spans"][0]
        assert root["attributes"]["op"] == "mpe"
        assert root["attributes"]["ok"] is False
        assert root["attributes"]["network"] == "cancer"
        assert root["attributes"]["latency_ms"] == pytest.approx(50.0)

    def test_reset_drops_everything(self):
        tracer = Tracer(1.0, slow_threshold_ms=0.0)
        tracer.finish(tracer.maybe_trace(), op="query", latency_s=1.0)
        tracer.reset()
        stats = tracer.stats()
        assert stats["requests_seen"] == 0
        assert tracer.traces() == [] and tracer.slow_queries() == []


# -------------------------------------------------------------- chrome export
class TestChromeTrace:
    def test_export_shape_and_rebasing(self):
        tracer = Tracer(1.0, clock=iter([10.0, 10.1, 10.2, 10.3,
                                         10.4, 10.5]).__next__)
        a = tracer.maybe_trace()
        a.record("execute", 10.05, 10.09)
        tracer.finish(a, op="query", latency_s=0.1)
        b = tracer.maybe_trace()
        tracer.finish(b, op="query", latency_s=0.1)

        dump = tracer.chrome_trace()
        assert dump["displayTimeUnit"] == "ms"
        events = dump["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        assert min(e["ts"] for e in events) == 0.0  # rebased to t0
        assert {e["tid"] for e in events} == {a.trace_id, b.trace_id}
        execute = next(e for e in events if e["name"] == "execute")
        assert execute["dur"] == pytest.approx(0.04 * 1e6)

    def test_empty_buffer_exports_cleanly(self):
        assert chrome_trace([]) == {"traceEvents": [],
                                    "displayTimeUnit": "ms"}


# -------------------------------------------------------------- kernel hooks
class TestKernelHooks:
    def test_install_restores_previous(self):
        outer, inner = ScheduleRecorder(), ScheduleRecorder()
        assert current_kernel_hooks() is None
        with install_kernel_hooks(outer):
            assert current_kernel_hooks() is outer
            with install_kernel_hooks(inner):
                assert current_kernel_hooks() is inner
            assert current_kernel_hooks() is outer
        assert current_kernel_hooks() is None

    def test_hooks_are_thread_local(self):
        recorder = ScheduleRecorder()
        seen = {}

        def probe():
            seen["other"] = current_kernel_hooks()

        with install_kernel_hooks(recorder):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen["other"] is None

    def test_recorder_summary_aggregates(self):
        rec = ScheduleRecorder()
        rec.on_message(upward=True, seconds=0.002)
        rec.on_message(upward=False, seconds=0.001)
        rec.on_absorb(0.0005, cliques=7)
        rec.on_schedule(backend="fused", messages=14, seconds=0.004,
                        arena_bytes=1024, cases=3)
        summary = rec.summary()
        assert summary["kernel_messages"] == 14
        assert summary["kernel_ms"] == pytest.approx(4.0)
        assert summary["collect_ms"] == pytest.approx(2.0)
        assert summary["distribute_ms"] == pytest.approx(1.0)
        assert summary["absorb_cliques"] == 7
        assert summary["kernel_backend"] == "fused"
        assert summary["arena_bytes"] == 1024
        assert summary["kernel_cases"] == 3

    @pytest.mark.parametrize("kernels", ["fused", "numpy"])
    def test_run_message_schedule_reports_into_hooks(self, asia, kernels):
        from repro.exec.kernels import get_kernels, run_message_schedule
        from repro.exec.plan import compile_plan
        from repro.jt.structure import compile_junction_tree

        plan = compile_plan(compile_junction_tree(asia))
        state = plan.fresh_state()
        plan.absorb_hard_evidence(state, {"smoke": "yes"})
        rec = ScheduleRecorder()
        with install_kernel_hooks(rec):
            run_message_schedule(plan, state, get_kernels(kernels))
        assert rec.backend == kernels
        assert rec.messages == plan.spec.num_messages
        assert rec.collect_s > 0 and rec.distribute_s > 0
        assert rec.schedule_s >= rec.collect_s + rec.distribute_s

    def test_run_message_schedule_silent_without_hooks(self, asia):
        from repro.exec.kernels import get_kernels, run_message_schedule
        from repro.exec.plan import compile_plan
        from repro.jt.structure import compile_junction_tree

        plan = compile_plan(compile_junction_tree(asia))
        state = plan.fresh_state()
        assert current_kernel_hooks() is None
        run_message_schedule(plan, state, get_kernels("fused"))
        posteriors = plan.read_posteriors(state)
        assert set(posteriors) == set(asia.variable_names)


# ------------------------------------------------------------ prometheus text
class TestPrometheusRender:
    def _snapshot(self):
        m = ServiceMetrics()
        for ms in (1, 5, 20):
            m.observe_request("query", ms / 1e3)
        m.observe_request("mpe", 0.002, ok=False)
        m.observe_batch(4)
        m.observe_cache(hit=True)
        m.observe_cache(hit=False)
        m.observe_stage("parse", 0.0002)
        m.observe_stage("execute", 0.003)
        m.observe_stage("execute", 0.030)
        return m.snapshot()

    def test_counters_and_labels(self):
        text = render_prometheus(self._snapshot())
        assert "# HELP fastbni_requests_total" in text
        assert "# TYPE fastbni_requests_total counter" in text
        assert "fastbni_requests_total 4" in text
        assert "fastbni_request_errors_total 1" in text
        assert 'fastbni_requests_by_op_total{op="query"} 3' in text
        assert 'fastbni_model_cache_lookups_total{outcome="hit"} 1' in text

    def test_stage_histogram_is_cumulative_in_seconds(self):
        text = render_prometheus(self._snapshot())
        # execute saw 3 ms and 30 ms → cumulative: le=0.005 has 1,
        # le=0.05 has 2, +Inf has 2.
        assert ('fastbni_stage_latency_seconds_bucket'
                '{stage="execute",le="0.005"} 1') in text
        assert ('fastbni_stage_latency_seconds_bucket'
                '{stage="execute",le="0.05"} 2') in text
        assert ('fastbni_stage_latency_seconds_bucket'
                '{stage="execute",le="+Inf"} 2') in text
        assert 'fastbni_stage_latency_seconds_count{stage="execute"} 2' in text
        sum_line = next(line for line in text.splitlines() if line.startswith(
            'fastbni_stage_latency_seconds_sum{stage="execute"}'))
        assert float(sum_line.split()[-1]) == pytest.approx(0.033)

    def test_latency_summary_quantiles(self):
        text = render_prometheus(self._snapshot())
        assert 'fastbni_request_latency_seconds{quantile="0.5"}' in text
        assert "fastbni_request_latency_seconds_count 4" in text

    def test_tracing_section_is_optional(self):
        snapshot = self._snapshot()
        text = render_prometheus(snapshot)
        assert "fastbni_trace_sample_rate" not in text
        snapshot["tracing"] = {"sample_rate": 0.01, "requests_seen": 100,
                               "traces_sampled": 1, "traces_buffered": 1,
                               "slow_threshold_ms": 100.0, "slow_entries": 0}
        text = render_prometheus(snapshot)
        assert "fastbni_trace_sample_rate 0.01" in text
        assert "fastbni_traces_sampled_total 1" in text


class TestClusterPrometheusRender:
    """The router's exposition: aggregate families + a worker dimension."""

    def _worker_snapshot(self, total: int, open_sessions: int = 0):
        m = ServiceMetrics()
        for _ in range(total):
            m.observe_request("query", 0.002)
        snap = m.snapshot()
        snap["sessions"]["open"] = open_sessions
        return snap

    def test_worker_label_carries_each_workers_own_counters(self):
        from repro.obs import render_cluster_prometheus
        from repro.service.metrics import aggregate_snapshots

        workers = {"w0": self._worker_snapshot(3, open_sessions=2),
                   "w1": self._worker_snapshot(5)}
        aggregate = aggregate_snapshots(list(workers.values()))
        text = render_cluster_prometheus(aggregate, workers)
        # aggregate families stay unlabelled (existing dashboards)
        assert "fastbni_requests_total 8" in text
        # per-worker series carry exactly that worker's numbers
        assert 'fastbni_worker_requests_total{worker="w0"} 3' in text
        assert 'fastbni_worker_requests_total{worker="w1"} 5' in text
        assert 'fastbni_worker_sessions_open{worker="w0"} 2' in text
        assert 'fastbni_worker_sessions_open{worker="w1"} 0' in text
        assert 'fastbni_worker_up{worker="w0"} 1' in text

    def test_dead_worker_renders_up_zero_not_stale_counters(self):
        from repro.obs import render_cluster_prometheus
        from repro.service.metrics import aggregate_snapshots

        workers = {"w0": self._worker_snapshot(4), "w1": None}
        aggregate = aggregate_snapshots(
            [s for s in workers.values() if s])
        text = render_cluster_prometheus(aggregate, workers)
        assert 'fastbni_worker_up{worker="w0"} 1' in text
        assert 'fastbni_worker_up{worker="w1"} 0' in text
        assert 'fastbni_worker_requests_total{worker="w1"} 0' in text

    def test_latency_p99_exposed_in_seconds(self):
        from repro.obs import render_cluster_prometheus
        from repro.service.metrics import aggregate_snapshots

        m = ServiceMetrics()
        for _ in range(100):
            m.observe_request("query", 0.050)  # 50 ms
        workers = {"w0": m.snapshot()}
        text = render_cluster_prometheus(
            aggregate_snapshots(list(workers.values())), workers)
        line = next(l for l in text.splitlines()
                    if l.startswith("fastbni_worker_latency_p99_seconds"))
        assert float(line.split()[-1]) == pytest.approx(0.050, rel=0.2)

    def test_router_section_adds_cluster_gauges(self):
        from repro.obs import render_cluster_prometheus
        from repro.service.metrics import aggregate_snapshots

        workers = {"w0": self._worker_snapshot(1),
                   "w1": self._worker_snapshot(1)}
        router = {"workers": 2, "healthy": 1, "restarts": 3,
                  "ejections": 2, "overloaded": 7, "sticky_sessions": 4,
                  "inflight": {"w0": 5, "w1": 0}}
        text = render_cluster_prometheus(
            aggregate_snapshots(list(workers.values())), workers, router)
        assert "fastbni_cluster_workers 2" in text
        assert "fastbni_cluster_workers_healthy 1" in text
        assert "fastbni_cluster_restarts_total 3" in text
        assert "fastbni_cluster_ejections_total 2" in text
        assert "fastbni_cluster_overloaded_total 7" in text
        assert "fastbni_cluster_sticky_sessions 4" in text
        assert 'fastbni_worker_inflight{worker="w0"} 5' in text

    def test_router_section_optional(self):
        from repro.obs import render_cluster_prometheus
        from repro.service.metrics import aggregate_snapshots

        workers = {"w0": self._worker_snapshot(1)}
        text = render_cluster_prometheus(
            aggregate_snapshots(list(workers.values())), workers)
        assert "fastbni_cluster_workers" not in text
        assert 'fastbni_worker_up{worker="w0"} 1' in text


# ------------------------------------------------------------- wire-level ops
async def _pipelined(port: int, requests: list[dict]) -> list[dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    for req in requests:
        writer.write(json.dumps(req).encode() + b"\n")
        await writer.drain()
        responses.append(json.loads(await reader.readline()))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return responses


class TestServerObservability:
    def test_traced_request_covers_all_stages(self):
        """A traced warm query records every stage, the stages fit inside
        its end-to-end latency, and what no span covers (loop hops, the
        executor hand-off) is small in absolute terms.

        The ratio this used to assert (stages within 10% of latency) only
        held because a 20 ms flush timer *was* the latency; with no timer
        a sub-millisecond request is mostly hops, so the remainder is
        bounded in milliseconds — well under the 2 ms the timer cost.
        """
        async def scenario():
            # cache=False pins the engine path (an execute span on every
            # query, no cache_lookup).
            server = InferenceServer(port=0, max_batch=8,
                                     cache=False, trace_sample_rate=1.0)
            server.preload(["asia"])
            await server.start()
            try:
                query = {"op": "query", "network": "asia",
                         "evidence": {"smoke": "yes"}, "targets": ["lung"]}
                # Warm twice (allocator, code paths), then measure.
                await _pipelined(server.port, [dict(query, id=i)
                                               for i in (1, 2)])
                responses = []
                for i in range(3, 8):  # one at a time: lone queries
                    responses += await _pipelined(server.port,
                                                  [dict(query, id=i)])
                traces = server.tracer.traces()
            finally:
                await server.stop()
            return responses, traces

        responses, traces = run(scenario())
        assert all(resp["ok"] for resp in responses)
        uncovered = []
        for trace in traces[-len(responses):]:
            root, *stages = trace["spans"]
            assert root["name"] == "request"
            assert sorted(s["name"] for s in stages) == sorted(
                ("parse", "registry_lookup", "queue_wait", "execute",
                 "serialize")), stages
            queue_wait = next(s for s in stages if s["name"] == "queue_wait")
            assert queue_wait["attributes"]["fill"] == 1
            assert isinstance(queue_wait["attributes"]["behind_flush"], bool)
            latency_ms = root["attributes"]["latency_ms"]
            stage_sum = sum(s["duration_ms"] for s in stages)
            assert stage_sum <= latency_ms
            uncovered.append(latency_ms - stage_sum)
        # The best of five: one scheduling hiccup on a busy box is not a
        # hidden wait, a remainder that never drops under 1 ms is.
        assert min(uncovered) < 1.0 * TIME_SLACK, uncovered
        trace = traces[-1]
        execute = next(s for s in trace["spans"] if s["name"] == "execute")
        assert execute["attributes"]["kernel_messages"] > 0
        assert execute["attributes"]["kernel_backend"] in ("fused", "numpy")

    def test_sampled_native_request_is_served_like_any_other(self):
        """A native server that traces every request answers with the
        decoded reply an untraced one gives, float for float: a sampled
        flush runs the same whole-case call.  Its execute span reports
        that call: backend native, the messages the engine ran."""
        from repro.exec.native import native_status

        if not native_status()[0]:
            pytest.skip(f"native backend unavailable: {native_status()[1]}")
        queries = [{"op": "query", "network": "asia", "id": i,
                    "evidence": evidence, "targets": targets}
                   for i, (evidence, targets) in enumerate([
                       ({"smoke": "yes"}, ["lung"]),
                       ({"xray": "yes", "asia": "no"}, []),
                       ({"bronc": "yes"}, ["lung", "dysp"]),
                       ({"dysp": "yes", "tub": "no"}, ["either"])])]

        async def scenario(rate):
            server = InferenceServer(port=0, cache=False, kernels="native",
                                     trace_sample_rate=rate)
            server.preload(["asia"])
            await server.start()
            try:
                replies, messages_run = [], []
                for query in queries:  # one at a time: lone queries
                    replies += await _pipelined(server.port, [query])
                    engine = server.registry.get("asia").engine
                    messages_run.append(engine.metrics["messages_run"])
                traces = server.tracer.traces()
            finally:
                await server.stop()
            return replies, messages_run, traces

        plain, _, untraced = run(scenario(0.0))
        sampled, messages_run, traces = run(scenario(1.0))
        assert untraced == [] and len(traces) == len(queries)
        assert all(reply["result"]["served_by"] == "batch" for reply in plain)
        assert sampled == plain
        for trace, run_count in zip(traces, messages_run):
            execute = next(s for s in trace["spans"] if s["name"] == "execute")
            assert execute["attributes"]["kernel_backend"] == "native"
            assert execute["attributes"]["kernel_messages"] == run_count
            assert "collect_ms" not in execute["attributes"]
        assert max(messages_run) > 0

    def test_cache_served_query_records_memo_span(self):
        async def scenario():
            server = InferenceServer(port=0,
                                     trace_sample_rate=1.0)
            server.preload(["asia"])
            await server.start()
            try:
                base = {"op": "query", "network": "asia",
                        "evidence": {"smoke": "yes"}}
                # Its second sighting stores the result; the third is
                # served by the memo.
                for i in range(3):
                    await _pipelined(server.port, [dict(base, id=i)])
                traces = server.tracer.traces()
            finally:
                await server.stop()
            return traces

        traces = run(scenario())
        lookup = next(s for s in traces[-1]["spans"]
                      if s["name"] == "cache_lookup")
        assert lookup["attributes"]["served"] == "memo"

    def test_metrics_slow_queries_and_trace_dump_ops(self):
        async def scenario():
            server = InferenceServer(port=0,
                                     trace_sample_rate=1.0,
                                     trace_slow_ms=0.0)
            server.preload(["asia"])
            await server.start()
            try:
                responses = await _pipelined(server.port, [
                    {"id": 1, "op": "query", "network": "asia",
                     "evidence": {"smoke": "yes"}},
                    {"id": 2, "op": "stats"},
                    {"id": 3, "op": "metrics"},
                    {"id": 4, "op": "slow_queries"},
                    {"id": 5, "op": "trace_dump"},
                ])
            finally:
                await server.stop()
            return responses

        query, stats, metrics, slow, dump = run(scenario())
        assert all(r["ok"] for r in (query, stats, metrics, slow, dump))
        tracing = stats["result"]["tracing"]
        assert tracing["sample_rate"] == 1.0
        assert tracing["traces_sampled"] >= 1

        assert metrics["result"]["content_type"].startswith("text/plain")
        text = metrics["result"]["text"]
        assert "fastbni_requests_total" in text
        assert 'fastbni_stage_latency_seconds_bucket{stage="parse"' in text
        assert "fastbni_trace_sample_rate 1" in text

        slow_result = slow["result"]
        assert slow_result["threshold_ms"] == 0.0
        assert slow_result["count"] >= 1
        assert slow_result["slow_queries"][0]["op"] == "query"

        chrome = dump["result"]
        assert chrome["traceCount"] >= 1
        assert any(e["name"] == "request" for e in chrome["traceEvents"])

    def test_session_ops_emit_spans(self):
        """Every session op is a span; a read says how much of the tree its
        whole-case call ran — every message on fused, those the evidence
        and targets need on native."""
        async def scenario(kernels):
            server = InferenceServer(port=0, trace_sample_rate=1.0,
                                     kernels=kernels)
            server.preload(["asia"])
            await server.start()
            try:
                (opened,) = await _pipelined(server.port, [
                    {"id": 1, "op": "session_open", "network": "asia"}])
                sid = opened["result"]["session"]
                await _pipelined(server.port, [
                    {"id": 2, "op": "session_update", "session": sid,
                     "evidence": {"smoke": "yes"}},
                    {"id": 3, "op": "session_update", "session": sid,
                     "evidence": {"xray": "no"}, "targets": ["lung"]},
                    {"id": 4, "op": "session_query", "session": sid,
                     "targets": ["lung"]},
                    {"id": 5, "op": "session_close", "session": sid},
                ])
                traces = server.tracer.traces()
            finally:
                await server.stop()
            return traces

        for kernels in ("fused", "native"):
            traces = run(scenario(kernels))
            spans = [s for t in traces for s in t["spans"]]
            named = {s["name"]: s for s in spans}
            assert named["session_open"]["attributes"]["network"] == "asia"
            assert named["session_open"]["attributes"]["session_bytes"] > 0
            edit, read = [s["attributes"] for s in spans
                          if s["name"] == "session_update"]
            assert edit["delta_size"] == read["delta_size"] == 1
            assert "messages_run" not in edit and read["messages_run"] > 0
            query = named["session_query"]["attributes"]
            assert query["evidence_vars"] == 2 and "messages_run" in query

    def test_sampling_disabled_by_default(self):
        async def scenario():
            server = InferenceServer(port=0)
            server.preload(["asia"])
            await server.start()
            try:
                await _pipelined(server.port, [
                    {"id": 1, "op": "query", "network": "asia",
                     "evidence": {"smoke": "yes"}}])
                (dump,) = await _pipelined(server.port,
                                           [{"id": 2, "op": "trace_dump"}])
                stats = server.tracer.stats()
            finally:
                await server.stop()
            return dump, stats

        dump, stats = run(scenario())
        assert dump["result"]["traceCount"] == 0
        assert stats["sample_rate"] == 0.0
        assert stats["traces_sampled"] == 0

    def test_sync_client_observability_methods(self):
        def sync_ops(port):
            with ServiceClient("127.0.0.1", port) as client:
                client.query("asia", {"smoke": "yes"}, targets=["lung"])
                return (client.metrics(), client.slow_queries(),
                        client.trace_dump())

        async def scenario():
            server = InferenceServer(port=0,
                                     trace_sample_rate=1.0,
                                     trace_slow_ms=0.0)
            server.preload(["asia"])
            await server.start()
            try:
                return await asyncio.to_thread(sync_ops, server.port)
            finally:
                await server.stop()

        text, slow, dump = run(scenario())
        assert text.startswith("# HELP")
        assert slow["count"] >= 1
        assert dump["traceCount"] >= 1

    def test_invalid_sample_rate_rejected_at_construction(self):
        with pytest.raises(QueryError, match="sample rate"):
            InferenceServer(port=0, trace_sample_rate=7.0)
