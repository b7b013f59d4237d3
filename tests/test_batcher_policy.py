"""The micro-batcher's flush policy (work-conserving, no timer).

Pinned here:

* an idle key flushes on the next loop iteration, so a lone query is a
  flush of one that never waits and N submits of one iteration are a
  flush of N;
* arrivals during a flush queue behind it and leave as exactly one
  follow-up flush, in arrival order, released by its completion;
* ``max_batch`` flushes at once, and ``max_batch=1`` (the ``batcher``
  ablation switch) means one case per flush;
* a flush is one task and one executor job on the resident path, except
  a flush of one on a native entry (one foreign call per case), which
  takes neither and runs in its flush callback; ``record_cold`` never
  takes a job and runs after the replies;
* every failure between enqueue and fan-out reaches the waiting clients;
* ``drain`` waits on a completion, so a flush that never reports done
  leaves it idle rather than spinning.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.bn import io_bif
from repro.core import BatchedFastBNI, FastBNI
from repro.errors import EvidenceError, ReproError
from repro.exec.native import native_status
from repro.obs.trace import current_kernel_hooks
from repro.service import (InferenceServer, MicroBatcher, ModelRegistry,
                           QueryRequest, ServiceMetrics)

#: CI boxes set REPRO_TEST_TIME_SLACK=3 (say) instead of editing tests.
TIME_SLACK = max(1.0, float(os.environ.get("REPRO_TEST_TIME_SLACK", "1.0")))

NATIVE_AVAILABLE, NATIVE_REASON = native_status()
needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason=f"native backend unavailable: {NATIVE_REASON}")

#: Eight distinct single-finding cases on asia, in a fixed order.
CASES = [{name: state} for name in ("smoke", "asia", "bronc", "xray")
         for state in ("yes", "no")]


def run(coro):
    return asyncio.run(coro)


def make_batcher(network: str = "asia", *, cache: bool = False,
                 kernels: str = "fused", **kwargs):
    """A batcher over a registry with ``network`` already resident."""
    metrics = ServiceMetrics()
    registry = ModelRegistry(metrics=metrics, cache=cache, kernels=kernels)
    registry.get(network)
    return MicroBatcher(registry, metrics=metrics, **kwargs), registry


def submit_all(batcher, cases, network: str = "asia") -> list[asyncio.Task]:
    return [asyncio.ensure_future(
        batcher.submit(network, QueryRequest(evidence=case)))
        for case in cases]


def batches(batcher) -> dict:
    return batcher.metrics.snapshot()["batches"]


def assert_quiescent(batcher) -> None:
    """Nothing queued, nothing running, no flush armed for later."""
    assert not batcher._queues
    assert not batcher._busy
    assert not batcher._inflight


def watch_hops(loop, cache) -> tuple[list, list]:
    """Log ``loop``'s executor jobs by function name into the first list,
    and each ``cache.record_cold`` call into the second as
    ``("record_cold", ran_on_the_loop_thread)``; callers log their replies
    there too.  Undo with ``del loop.run_in_executor``."""
    jobs, events = [], []
    loop_thread = threading.get_ident()
    run_in_executor, record_cold = loop.run_in_executor, cache.record_cold

    def counting(executor, fn, *args):
        jobs.append(fn.__name__)
        return run_in_executor(executor, fn, *args)

    def recording(items):
        events.append(("record_cold", threading.get_ident() == loop_thread))
        record_cold(items)

    loop.run_in_executor, cache.record_cold = counting, recording
    return jobs, events


class HeldEngine:
    """Wraps a resident engine's ``infer_cases`` and ``infer`` (a flush of
    one's call): every call records the cases it was handed and blocks
    until :meth:`release`."""

    def __init__(self, registry, network: str = "asia") -> None:
        self.engine = registry.get(network).engine
        self.calls: list[list[dict]] = []
        self.entered = threading.Event()
        self.gate = threading.Event()
        infer_cases, infer = self.engine.infer_cases, self.engine.infer

        def hold(cases):
            self.calls.append(list(cases))
            self.entered.set()
            assert self.gate.wait(10 * TIME_SLACK)

        def held_cases(cases, **kwargs):
            hold(cases)
            return infer_cases(cases, **kwargs)

        def held_one(evidence, *args, **kwargs):
            hold([evidence])
            return infer(evidence, *args, **kwargs)

        self.engine.infer_cases, self.engine.infer = held_cases, held_one

    async def wait_entered(self) -> None:
        while not self.entered.is_set():
            await asyncio.sleep(0.001)

    def release(self) -> None:
        self.gate.set()


class TestFlushPolicy:
    def test_lone_queries_are_flushes_of_one_that_never_wait(self):
        async def scenario():
            server = InferenceServer(port=0, cache=False)
            server.preload(["asia"])
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)

                async def ask(request: dict) -> dict:
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                for i, case in enumerate(CASES[:2]):  # warm code paths
                    await ask({"id": i, "op": "query", "network": "asia",
                               "evidence": case})
                await server.batcher.drain()
                await ask({"id": 10, "op": "stats_reset"})
                replies = [await ask({"id": 11 + i, "op": "query",
                                      "network": "asia", "evidence": case})
                           for i, case in enumerate(CASES[2:7])]
                stats = (await ask({"id": 20, "op": "stats"}))["result"]
                writer.close()
            finally:
                await server.stop()
            return replies, stats

        replies, stats = run(scenario())
        assert all(reply["ok"] and reply["result"]["served_by"] == "batch"
                   for reply in replies)
        # Five queries one at a time: five flushes of one, each started
        # by its own arrival at an idle key.
        flushes = stats["batches"]
        assert (flushes["count"], flushes["cases"]) == (5, 5)
        assert (flushes["flushes_idle"], flushes["flushes_behind"]) == (5, 0)
        assert flushes["flushes_inline"] == 0  # a fused entry: off the loop
        assert stats["batcher"] == {"max_batch": 64}
        # One loop hop plus the executor hand-off: the median stays under
        # 1 ms (the deleted timer charged every one of them 2 ms).
        queue_wait = stats["stages"]["queue_wait"]
        assert queue_wait["count"] == 5
        fast = sum(count for label, count in queue_wait["buckets"].items()
                   if label != "inf" and float(label[3:]) <= 1.0)
        assert fast >= 3, queue_wait

    def test_submits_of_one_iteration_share_one_flush(self, asia):
        async def scenario():
            batcher, registry = make_batcher()
            try:
                results = await asyncio.gather(*submit_all(batcher, CASES))
                assert_quiescent(batcher)
            finally:
                await batcher.aclose()
                registry.close()
            return results, batches(batcher)

        results, snap = run(scenario())
        assert (snap["count"], snap["cases"]) == (1, len(CASES))
        assert (snap["flushes_idle"], snap["flushes_behind"]) == (1, 0)
        with FastBNI(asia, mode="seq") as engine:
            for case, got in zip(CASES, results):
                np.testing.assert_allclose(
                    got.posteriors["dysp"],
                    engine.infer(case).posteriors["dysp"], atol=1e-12)

    def test_arrivals_during_a_flush_form_one_follow_up(self):
        async def scenario():
            batcher, registry = make_batcher()
            held = HeldEngine(registry)
            first, *rest = CASES[:4]
            try:
                tasks = submit_all(batcher, [first])
                await held.wait_entered()
                for case in rest:  # one arrival per loop iteration
                    tasks += submit_all(batcher, [case])
                    await asyncio.sleep(0)
                # Queued behind the running flush: no second flush yet.
                assert [p.request.evidence for p in
                        batcher._queues[("asia", "exact")]] == rest
                assert batches(batcher)["flushes_idle"] == 1
                assert batches(batcher)["flushes_behind"] == 0
                draining = asyncio.ensure_future(batcher.drain())
                await asyncio.sleep(0)
                assert not draining.done()
                held.release()
                await asyncio.wait_for(draining, 10 * TIME_SLACK)
                # drain() returning means every client has its answer.
                assert all(task.done() for task in tasks)
                assert_quiescent(batcher)
                await batcher.aclose()
                assert_quiescent(batcher)
            finally:
                held.release()
                await batcher.aclose()
                registry.close()
            return held.calls, batches(batcher)

        calls, snap = run(scenario())
        first, *rest = CASES[:4]
        assert calls == [[first], rest]  # one follow-up, in arrival order
        assert (snap["flushes_idle"], snap["flushes_behind"]) == (1, 1)
        assert (snap["count"], snap["cases"], snap["max_fill"]) == (2, 4, 3)

    def test_full_queue_flushes_at_once(self):
        async def scenario():
            batcher, registry = make_batcher(max_batch=4)
            try:
                # Three arrivals: the flush is only scheduled.
                tasks = submit_all(batcher, CASES[:3])
                await asyncio.sleep(0)
                assert len(batcher._queues[("asia", "exact")]) == 3
                assert batches(batcher)["flushes_idle"] == 0
                await asyncio.gather(*tasks)
                await batcher.drain()
                batcher.metrics.reset()
                # Four: the fourth starts it from inside submit().
                tasks = submit_all(batcher, CASES[:4])
                await asyncio.sleep(0)
                assert not batcher._queues
                assert batches(batcher)["flushes_idle"] == 1
                await asyncio.gather(*tasks)
                await batcher.drain()
                assert_quiescent(batcher)
                batcher.metrics.reset()
                # Eight: two full flushes, nothing larger than max_batch.
                await asyncio.gather(*submit_all(batcher, CASES))
                await batcher.drain()
                assert_quiescent(batcher)
            finally:
                await batcher.aclose()
                registry.close()
            return batches(batcher)

        snap = run(scenario())
        assert (snap["count"], snap["cases"], snap["max_fill"]) == (2, 8, 4)

    def test_max_batch_one_is_one_case_per_flush(self):
        """The ``batcher`` ablation switch still switches coalescing off."""
        async def scenario():
            batcher, registry = make_batcher(max_batch=1)
            try:
                await asyncio.gather(*submit_all(batcher, CASES))
                await batcher.drain()
                assert_quiescent(batcher)
            finally:
                await batcher.aclose()
                registry.close()
            return batches(batcher)

        snap = run(scenario())
        assert (snap["count"], snap["cases"], snap["max_fill"]) == (
            len(CASES), len(CASES), 1)

    @pytest.mark.parametrize("kernels", [
        "fused", pytest.param("native", marks=needs_native)])
    def test_flush_of_one_is_the_single_case_infer(self, asia, kernels):
        """A lone exact query is calibrated by ``engine.infer``: the flush
        never calls ``infer_cases``, still counts as a batch of one, and
        answers as ``infer_cases([case])`` does, to 1e-12."""
        asks = [(case, ("lung", "bronc") if i % 2 else ())
                for i, case in enumerate(CASES)]

        async def scenario():
            batcher, registry = make_batcher(kernels=kernels)
            engine = registry.get("asia").engine
            batched = []

            def infer_cases(cases, **kwargs):
                batched.append(cases)
                return type(engine).infer_cases(engine, cases, **kwargs)

            engine.infer_cases = infer_cases
            try:
                answers = [await batcher.submit(
                    "asia", QueryRequest(evidence=case, targets=targets))
                    for case, targets in asks]
            finally:
                await batcher.aclose()
                registry.close()
            return batched, answers, batches(batcher)

        batched, answers, snap = run(scenario())
        assert batched == []
        assert (snap["count"], snap["cases"], snap["max_fill"]) == (
            len(CASES), len(CASES), 1)
        with BatchedFastBNI(asia, mode="seq", kernels=kernels) as engine:
            for (case, targets), got in zip(asks, answers):
                want = engine.infer_cases([case], targets=targets).case(0)
                assert list(got.posteriors) == list(want.posteriors)
                for name, values in want.posteriors.items():
                    np.testing.assert_allclose(got.posteriors[name], values,
                                               atol=1e-12, rtol=0)
                assert got.log_evidence == pytest.approx(want.log_evidence,
                                                         abs=1e-12)

    def test_one_executor_job_per_flush(self):
        """A lone warm query on a fused entry: one ``run_in_executor``
        stands between submit and the reply (lookup and pin are dict hits
        on the loop); ``record_cold`` then runs on the loop, after it."""
        async def scenario():
            batcher, registry = make_batcher(cache=True)
            loop = asyncio.get_running_loop()
            jobs, events = watch_hops(loop, registry.get("asia").cache)
            try:
                await batcher.submit("asia", QueryRequest(evidence=CASES[0]))
                events.append("reply")
                await batcher.drain()
                assert_quiescent(batcher)
            finally:
                del loop.run_in_executor
                await batcher.aclose()
                registry.close()
            return jobs, events, batches(batcher)

        jobs, events, snap = run(scenario())
        assert jobs == ["_serve_batch"]
        assert events == ["reply", ("record_cold", True)]
        assert snap["flushes_inline"] == 0


@needs_native
class TestInlineFlush:
    """A flush of one request on a native entry (one foreign call per
    case) is served on the loop; every other flush keeps its one job on
    the flush worker."""

    def test_lone_query_takes_no_executor_job(self, asia):
        async def scenario():
            batcher, registry = make_batcher(cache=True, kernels="native")
            assert registry.get("asia").one_foreign_call
            loop = asyncio.get_running_loop()
            jobs, events = watch_hops(loop, registry.get("asia").cache)
            try:
                got = await batcher.submit(
                    "asia", QueryRequest(evidence=CASES[0]))
                events.append("reply")
                await batcher.drain()
                assert_quiescent(batcher)
            finally:
                del loop.run_in_executor
                await batcher.aclose()
                assert_quiescent(batcher)
                registry.close()
            return got, jobs, events, batches(batcher)

        got, jobs, events, snap = run(scenario())
        assert jobs == []
        # The reply was delivered before the memo write began.
        assert events == ["reply", ("record_cold", True)]
        assert (snap["flushes_idle"], snap["flushes_inline"]) == (1, 1)
        with FastBNI(asia, mode="seq") as engine:
            np.testing.assert_allclose(
                got.posteriors["dysp"],
                engine.infer(CASES[0]).posteriors["dysp"], atol=1e-12)

    @pytest.mark.parametrize(("kernels", "cases", "tasks"), [
        ("native", CASES[:1], 0), ("native", CASES, 1), ("fused", CASES[:1], 1)])
    def test_a_native_flush_of_one_runs_in_its_callback(self, kernels, cases,
                                                        tasks):
        """A native flush of one starts no task; a flush of more than one
        and a fused flush of one are a task each.  Every flush makes one
        pinned registry lookup."""
        async def scenario():
            batcher, registry = make_batcher(kernels=kernels)
            loop = asyncio.get_running_loop()
            created, lookups = [], []
            create_task, get_pinned = loop.create_task, registry.get_pinned

            def counting_task(coro, **kwargs):
                created.append(coro.__qualname__)
                return create_task(coro, **kwargs)

            def counting_lookup(*args, **kwargs):
                lookups.append(args)
                return get_pinned(*args, **kwargs)

            loop.create_task = counting_task
            registry.get_pinned = counting_lookup
            try:
                await asyncio.gather(*submit_all(batcher, cases))
                await batcher.drain()
                assert_quiescent(batcher)
            finally:
                del loop.create_task
                await batcher.aclose()
                registry.close()
            return created, lookups, batches(batcher)

        created, lookups, snap = run(scenario())
        assert created.count("MicroBatcher._run_batch") == tasks
        assert len(lookups) == 1
        assert snap["count"] == 1
        assert snap["flushes_inline"] == 1 - tasks

    def test_submits_of_one_iteration_are_one_executor_job(self):
        async def scenario():
            batcher, registry = make_batcher(cache=True, kernels="native")
            loop = asyncio.get_running_loop()
            jobs, events = watch_hops(loop, registry.get("asia").cache)

            async def ask(case):
                await batcher.submit("asia", QueryRequest(evidence=case))
                events.append("reply")

            try:
                await asyncio.gather(*(ask(case) for case in CASES))
                await batcher.drain()
                assert_quiescent(batcher)
            finally:
                del loop.run_in_executor
                await batcher.aclose()
                registry.close()
            return jobs, events, batches(batcher)

        jobs, events, snap = run(scenario())
        assert jobs == ["_serve_batch"]
        assert events == ["reply"] * len(CASES) + [("record_cold", True)]
        assert (snap["count"], snap["cases"]) == (1, len(CASES))
        assert (snap["flushes_idle"], snap["flushes_inline"]) == (1, 0)

    def test_lone_impossible_query_fails_alone(self):
        """An inline flush of one impossible case: it gets its
        EvidenceError with no per-case retry, the next one succeeds."""
        impossible = {"Sprinkler": "off", "Rain": "no", "WetGrass": "yes"}

        async def scenario():
            batcher, registry = make_batcher("sprinkler", cache=True,
                                             kernels="native")
            try:
                with pytest.raises(EvidenceError):
                    await batcher.submit("sprinkler",
                                         QueryRequest(evidence=impossible))
                ok = await batcher.submit(
                    "sprinkler", QueryRequest(evidence={"Rain": "yes"}))
                await batcher.drain()
                assert_quiescent(batcher)
            finally:
                await batcher.aclose()
                registry.close()
            return ok, batches(batcher)

        ok, snap = run(scenario())
        assert abs(float(ok.posteriors["WetGrass"].sum()) - 1.0) < 1e-12
        assert snap["fallback_cases"] == 0
        assert snap["flushes_idle"] + snap["flushes_behind"] == 2
        assert snap["flushes_inline"] == 2

    @pytest.mark.parametrize("kernels", [
        "fused", pytest.param("native", marks=needs_native)])
    def test_lone_impossible_query_is_calibrated_once(self, kernels):
        """A flush of one has nothing to isolate: the engine's error is
        the case's answer, from one engine call; a poisoned flush of more
        than one still retries case by case."""
        impossible = {"Sprinkler": "off", "Rain": "no", "WetGrass": "yes"}

        async def scenario():
            batcher, registry = make_batcher("sprinkler", kernels=kernels)
            engine = registry.get("sprinkler").engine
            calls = []

            def infer(*args, **kwargs):
                calls.append(args)
                return type(engine).infer(engine, *args, **kwargs)

            engine.infer = infer
            try:
                with pytest.raises(EvidenceError):
                    await batcher.submit("sprinkler",
                                         QueryRequest(evidence=impossible))
                lone = len(calls), batches(batcher)["fallback_cases"]
                answers = await asyncio.gather(*(
                    batcher.submit("sprinkler", QueryRequest(evidence=case))
                    for case in (impossible, {"Rain": "yes"})),
                    return_exceptions=True)
            finally:
                await batcher.aclose()
                registry.close()
            return lone, answers, batches(batcher)

        lone, (bad, ok), snap = run(scenario())
        assert lone == (1, 0)
        assert isinstance(bad, EvidenceError)
        assert "WetGrass" in ok.posteriors
        assert snap["fallback_cases"] == 2

    def test_sampled_lone_query_matches_unsampled(self):
        """A sampled inline flush takes the staged path with the kernel
        hooks installed on the loop thread — and removed after it."""
        query = {"op": "query", "network": "asia",
                 "evidence": {"smoke": "yes", "xray": "no"}}

        async def scenario():
            server = InferenceServer(port=0, cache=False, kernels="native",
                                     trace_sample_rate=0.5)
            server.preload(["asia"])
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                replies = []
                for i in (1, 2):  # every 2nd request is sampled
                    writer.write(json.dumps(dict(query, id=i)).encode()
                                 + b"\n")
                    await writer.drain()
                    replies.append(json.loads(await reader.readline()))
                hooks_after = current_kernel_hooks()
                writer.close()
                traces = server.tracer.traces()
                flushes = server.metrics.snapshot()["batches"]
            finally:
                await server.stop()
            return replies, hooks_after, traces, flushes

        (plain, sampled), hooks_after, traces, flushes = run(scenario())
        assert plain["ok"] and sampled["ok"]
        assert hooks_after is None
        assert flushes["flushes_inline"] == 2
        assert abs(plain["result"]["log_evidence"]
                   - sampled["result"]["log_evidence"]) <= 1e-12
        for name, probs in plain["result"]["posteriors"].items():
            np.testing.assert_allclose(
                sampled["result"]["posteriors"][name], probs, atol=1e-12)
        (trace,) = traces
        names = {span["name"] for span in trace["spans"]}
        assert {"parse", "queue_wait", "execute", "serialize"} <= names
        execute = next(s for s in trace["spans"] if s["name"] == "execute")
        assert execute["attributes"]["inline"] is True
        assert execute["attributes"]["kernel_messages"] > 0


class TestFailuresReachTheClients:
    """A failure between enqueue and fan-out used to kill the flush task
    and leave every coalesced future unresolved (clients hung until their
    own timeout).  Both scenarios queue a request behind a held flush,
    break the registry, and require the error to arrive instead."""

    @staticmethod
    async def _queued_behind(batcher, held, network: str):
        ahead = submit_all(batcher, [CASES[0]], network)
        await held.wait_entered()
        queued = submit_all(batcher, CASES[1:3], network)
        await asyncio.sleep(0)
        assert len(batcher._queues[(network, "exact")]) == 2
        return ahead, queued

    @staticmethod
    async def _settle(batcher, held, ahead, queued):
        held.release()
        done = await asyncio.wait_for(
            asyncio.gather(*ahead, *queued, return_exceptions=True),
            2.0 * TIME_SLACK)
        await asyncio.wait_for(batcher.drain(), 2.0 * TIME_SLACK)
        assert_quiescent(batcher)
        return done

    def test_registry_closed_while_queued(self):
        async def scenario():
            batcher, registry = make_batcher()
            held = HeldEngine(registry)
            try:
                ahead, queued = await self._queued_behind(
                    batcher, held, "asia")
                registry.close()
                return await self._settle(batcher, held, ahead, queued)
            finally:
                held.release()
                await batcher.aclose()

        ok, *failed = run(scenario())
        assert "dysp" in ok.posteriors  # the flush in flight kept its pin
        for exc in failed:
            assert isinstance(exc, ReproError)
            assert "closed" in str(exc)

    @needs_native
    def test_registry_closed_while_one_native_query_is_queued(self):
        """A flush of one that would run inline looks its entry up as it
        starts: a closed registry is that request's error."""
        async def scenario():
            batcher, registry = make_batcher(kernels="native")
            held = HeldEngine(registry)
            try:
                # Two coalesced cases take the flush worker and are held
                # there; one more queues behind them as a flush of one.
                ahead = submit_all(batcher, CASES[:2])
                await held.wait_entered()
                queued = submit_all(batcher, CASES[2:3])
                await asyncio.sleep(0)
                registry.close()
                return await self._settle(batcher, held, ahead, queued)
            finally:
                held.release()
                await batcher.aclose()

        *ok, failed = run(scenario())
        assert all("dysp" in result.posteriors for result in ok)
        assert isinstance(failed, ReproError) and "closed" in str(failed)

    def test_evicted_model_whose_reload_fails(self, asia, tmp_path):
        path = tmp_path / "model.bif"
        io_bif.dump(asia, path)
        network = str(path)

        async def scenario():
            batcher, registry = make_batcher(network)
            held = HeldEngine(registry, network)
            try:
                ahead, queued = await self._queued_behind(
                    batcher, held, network)
                assert registry.evict(network) == network
                path.unlink()
                return await self._settle(batcher, held, ahead, queued)
            finally:
                held.release()
                await batcher.aclose()
                registry.close()

        ok, *failed = run(scenario())
        assert "dysp" in ok.posteriors
        for exc in failed:
            assert isinstance(exc, ReproError)


class TestDrain:
    def test_a_lost_flush_leaves_drain_idle(self):
        """With one ``_flush_done`` dropped the key never empties: drain
        must time out without burning a core while it waits."""
        async def scenario():
            batcher, registry = make_batcher()
            flush_done = batcher._flush_done
            dropped = []

            def drop_first(key):
                if dropped:
                    flush_done(key)
                else:
                    dropped.append(key)

            batcher._flush_done = drop_first
            try:
                result = await batcher.submit(
                    "asia", QueryRequest(evidence=CASES[0]))
                assert "dysp" in result.posteriors
                start = time.process_time()
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(batcher.drain(), 0.5)
                spent = time.process_time() - start
                assert dropped == [("asia", "exact")]
                # The lost flush reports in late: the key empties and a
                # drain started after the timed-out one returns.
                batcher._flush_done = flush_done
                flush_done(dropped.pop())
                await asyncio.wait_for(batcher.drain(), 2.0 * TIME_SLACK)
                assert_quiescent(batcher)
                return spent
            finally:
                batcher._flush_done = flush_done
                for key in dropped:
                    flush_done(key)
                await batcher.aclose()
                registry.close()

        assert run(scenario()) < 0.1
