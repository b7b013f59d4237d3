"""The micro-batcher's flush policy (work-conserving, no timer).

Pinned here:

* an idle key flushes on the next loop iteration, so a lone query is a
  flush of one that never waits and N submits of one iteration are a
  flush of N;
* arrivals during a flush queue behind it and leave as exactly one
  follow-up flush, in arrival order, released by its completion;
* ``max_batch`` flushes at once, and ``max_batch=1`` (the ``batcher``
  ablation switch) means one case per flush;
* a flush is one executor job on the resident path;
* every failure between enqueue and fan-out reaches the waiting clients.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading

import numpy as np
import pytest

from repro.bn import io_bif
from repro.core import FastBNI
from repro.errors import ReproError
from repro.service import (InferenceServer, MicroBatcher, ModelRegistry,
                           QueryRequest, ServiceMetrics)

#: CI boxes set REPRO_TEST_TIME_SLACK=3 (say) instead of editing tests.
TIME_SLACK = max(1.0, float(os.environ.get("REPRO_TEST_TIME_SLACK", "1.0")))

#: Eight distinct single-finding cases on asia, in a fixed order.
CASES = [{name: state} for name in ("smoke", "asia", "bronc", "xray")
         for state in ("yes", "no")]


def run(coro):
    return asyncio.run(coro)


def make_batcher(network: str = "asia", *, cache: bool = False, **kwargs):
    """A batcher over a registry with ``network`` already resident."""
    metrics = ServiceMetrics()
    registry = ModelRegistry(metrics=metrics, cache=cache)
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


class HeldEngine:
    """Wraps a resident engine's ``infer_cases``: every call records the
    cases it was handed and blocks until :meth:`release`."""

    def __init__(self, registry, network: str = "asia") -> None:
        self.engine = registry.get(network).engine
        self.calls: list[list[dict]] = []
        self.entered = threading.Event()
        self.gate = threading.Event()
        inner = self.engine.infer_cases

        def held(cases, **kwargs):
            self.calls.append(list(cases))
            self.entered.set()
            assert self.gate.wait(10 * TIME_SLACK)
            return inner(cases, **kwargs)

        self.engine.infer_cases = held

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

    def test_one_executor_job_per_flush(self):
        """A lone warm query: one ``run_in_executor`` stands between
        submit and the reply (lookup and pin are dict hits on the loop);
        ``record_cold`` is a second job the reply does not wait for."""
        async def scenario():
            batcher, registry = make_batcher(cache=True)
            cache = registry.get("asia").cache
            loop = asyncio.get_running_loop()
            jobs, gate, recorded = [], threading.Event(), []
            run_in_executor, inner = loop.run_in_executor, cache.record_cold

            def counting(executor, fn, *args):
                jobs.append(fn.__name__)
                return run_in_executor(executor, fn, *args)

            def record_cold(items):
                assert gate.wait(10 * TIME_SLACK)
                inner(items)
                recorded.append(len(items))

            loop.run_in_executor, cache.record_cold = counting, record_cold
            try:
                await batcher.submit("asia", QueryRequest(evidence=CASES[0]))
                at_reply = list(jobs), list(recorded)
                gate.set()
                await batcher.drain()
            finally:
                gate.set()
                del loop.run_in_executor
                await batcher.aclose()
                registry.close()
            return at_reply, jobs, recorded

        at_reply, jobs, recorded = run(scenario())
        # The reply arrived with record_cold submitted but still held.
        assert at_reply == (["_serve_batch", "record_cold"], [])
        assert jobs == ["_serve_batch", "record_cold"]
        assert recorded == [1]


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
