"""Tests for the multi-process cluster tier (placement, router, chaos).

The subprocess-backed tests share one module-scoped cluster (spawning
real workers costs seconds); tests that kill or drain workers build
their own throwaway cluster so the shared one stays healthy.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.bn.repository import resolve_network
from repro.cluster.placement import DEFAULT_VNODES, HashRing
from repro.cluster.protocol import parse_ready, ready_line
from repro.cluster.router import ClusterRouter, WorkerHandle
from repro.cluster.supervisor import Supervisor
from repro.core import FastBNI
from repro.errors import ServiceError, SessionError
from repro.service import ServiceClient
from repro.service.ops import LOCAL, OPEN, OPS, PLACED, ROUTER, STICKY

#: Multiplier for every wall-clock budget in this file (worker spawn,
#: respawn probes, drain deadlines).  Slow CI boxes set
#: REPRO_TEST_TIME_SLACK=3 (say) instead of editing individual deadlines.
TIME_SLACK = max(1.0, float(os.environ.get("REPRO_TEST_TIME_SLACK", "1.0")))


# ------------------------------------------------------------------ placement
class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])  # insertion order must not matter
        for key in ("asia", "cancer", "pathfinder", "munin2"):
            assert a.node_for(key) == b.node_for(key)

    def test_replicas_are_distinct_and_ordered_stably(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        replicas = ring.nodes_for("asia", 3)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3
        # growing the replica set only appends, never reshuffles
        assert ring.nodes_for("asia", 2) == replicas[:2]

    def test_count_capped_by_membership(self):
        ring = HashRing(["w0", "w1"])
        assert len(ring.nodes_for("asia", 10)) == 2
        assert ring.nodes_for("asia", 0) == []
        assert HashRing().nodes_for("asia", 1) == []

    def test_alive_filter_does_not_remap_survivors(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        keys = [f"model-{i}" for i in range(200)]
        before = {k: ring.node_for(k) for k in keys}
        dead = "w2"
        alive = {"w0", "w1", "w3"}
        for key in keys:
            got = ring.node_for(key, alive=alive)
            if before[key] != dead:
                # models not on the dead worker keep their placement
                assert got == before[key]
            else:
                assert got in alive
        # and the filter is non-destructive: full membership restores all
        assert {k: ring.node_for(k) for k in keys} == before

    def test_removal_only_remaps_the_removed_nodes_keys(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        keys = [f"model-{i}" for i in range(200)]
        before = {k: ring.node_for(k) for k in keys}
        ring.remove("w1")
        moved = [k for k in keys if ring.node_for(k) != before[k]]
        assert all(before[k] == "w1" for k in moved)

    def test_vnodes_balance(self):
        ring = HashRing(["w0", "w1", "w2", "w3"], vnodes=DEFAULT_VNODES)
        counts = {w: 0 for w in ring.nodes}
        for i in range(2000):
            counts[ring.node_for(f"key-{i}")] += 1
        # 64 vnodes keeps a 4-node ring within a loose 2x of fair share
        assert max(counts.values()) < 2 * (2000 / 4)
        assert min(counts.values()) > 0.4 * (2000 / 4)

    def test_rejects_bad_vnodes(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


# ------------------------------------------------------------------- protocol
class TestProtocol:
    def test_ready_line_round_trip(self):
        payload = parse_ready(ready_line(4242, 99))
        assert payload == {"port": 4242, "pid": 99}

    def test_parse_ready_rejects_noise(self):
        assert parse_ready("some other stdout line") is None
        assert parse_ready("FASTBNI_WORKER_READY not-json") is None
        assert parse_ready("FASTBNI_WORKER_READY [1,2]") is None

    def test_op_classes_are_disjoint(self):
        classes = {}
        for row in OPS.values():
            classes.setdefault(row.route, set()).add(row.name)
        placed = classes[PLACED] | classes[OPEN]
        sticky = classes[STICKY]
        answered_by_router = classes[LOCAL] | classes[ROUTER]
        assert not (placed & sticky)
        assert not (placed & answered_by_router)
        assert not (sticky & answered_by_router)
        assert placed == {"query", "query_batch", "mpe", "info",
                          "session_open"}
        assert sticky == {"session_update", "session_query", "session_close"}
        assert classes[ROUTER] == {"cluster_stats", "cluster_drain"}


# ------------------------------------------------- router units (no workers)
class _StubHandle:
    def __init__(self, inflight: int, connected: bool = True):
        self._inflight = inflight
        self.connected = connected

    @property
    def inflight(self):
        return self._inflight


class TestPickWorker:
    def _router(self, **kw):
        return ClusterRouter("127.0.0.1", 0, supervisor=Supervisor(1), **kw)

    def test_overloaded_when_all_windows_full(self):
        router = self._router(max_inflight=2)
        for wid, load in (("w0", 2), ("w1", 5)):
            router.ring.add(wid)
            router.healthy.add(wid)
            router.handles[wid] = _StubHandle(load)
        with pytest.raises(ServiceError) as err:
            router._pick_worker("asia")
        assert err.value.code == "overloaded"

    def test_least_loaded_replica_wins(self):
        router = self._router(max_inflight=64, replicate_hot_qps=0.0)
        router.ring.add("w0")
        router.healthy.add("w0")
        router.handles["w0"] = _StubHandle(3)
        assert router._pick_worker("asia") is router.handles["w0"]

    def test_no_worker_when_all_ejected(self):
        router = self._router()
        router.ring.add("w0")
        router.handles["w0"] = _StubHandle(0)
        # w0 never added to healthy -> ejected
        with pytest.raises(ServiceError) as err:
            router._pick_worker("asia")
        assert err.value.code == "no_worker"

    def test_hot_replication_grows_with_qps(self):
        # the QPS window is 10s, so 25 observations read as 2.5 rps
        router = self._router(replicate_hot_qps=1.0, max_replicas=0)
        assert router._replicas_for("cold") == 1
        for _ in range(25):
            router.metrics.observe_network_request("hot")
        assert router._replicas_for("hot") >= 2

    def test_max_replicas_caps_replication(self):
        router = self._router(replicate_hot_qps=0.1, max_replicas=2)
        for _ in range(50):
            router.metrics.observe_network_request("hot")
        assert router._replicas_for("hot") == 2


# -------------------------------------------------------- live cluster tests
WORKER_OPTIONS = {"cache": False}


class ClusterHarness:
    """A router + N real worker subprocesses on a private event loop."""

    def __init__(self, workers: int = 2, preload=("asia",), **router_kw):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.supervisor = Supervisor(
            workers, preload=preload, options=dict(WORKER_OPTIONS))
        self.router = ClusterRouter("127.0.0.1", 0,
                                    supervisor=self.supervisor, **router_kw)
        self.run(self.router.start(), timeout=180)
        self.port = self.router.port

    def run(self, coro, timeout: float = 60):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout=timeout * TIME_SLACK)

    def client(self, **kw) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, **kw)

    def stop(self):
        if getattr(self, "_stopped", False):
            return
        self._stopped = True
        try:
            self.run(self.router.stop(), timeout=60)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=10 * TIME_SLACK)
            self.loop.close()


@pytest.fixture(scope="module")
def cluster():
    harness = ClusterHarness(workers=2)
    yield harness
    harness.stop()


class TestClusterServing:
    def test_health_reports_router_and_workers(self, cluster):
        with cluster.client() as client:
            health = client.health()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert set(health["workers"]) == {"w0", "w1"}
        assert all(w["healthy"] for w in health["workers"].values())

    def test_query_matches_local_engine(self, cluster):
        with cluster.client() as client:
            got = client.query("asia", evidence={"smoke": "yes"})
        with FastBNI(resolve_network("asia"), mode="seq") as engine:
            want = engine.infer({"smoke": "yes"})
        for name, values in got["posteriors"].items():
            np.testing.assert_allclose(values, want.posteriors[name],
                                       atol=1e-9)

    def test_unknown_op_is_a_query_error(self, cluster):
        with cluster.client() as client:
            with pytest.raises(ServiceError) as err:
                client.call("frobnicate")
        assert "frobnicate" in str(err.value)

    def test_wrong_typed_fields_rejected_before_forwarding(
            self, cluster, wrong_typed_requests):
        # Router rows included: a malformed cluster_drain must not drain.
        cases = [(req, want) for route, req, want in wrong_typed_requests
                 if route != LOCAL]
        forwarded = {name for name, row in OPS.items()
                     if row.route not in (LOCAL, ROUTER)}

        def worker_counts(client):
            stats = client.call("stats")["worker_stats"].values()
            return {name: sum(s["requests"]["by_op"].get(name, 0)
                              for s in stats) for name in forwarded}

        with cluster.client() as client:
            before = worker_counts(client)
            for request, want in cases:
                fields = {k: v for k, v in request.items() if k != "op"}
                reply = client.request(request["op"], **fields)
                assert reply["ok"] is False, request
                assert reply["error"]["type"] == want, (request, reply)
            # nothing was forwarded, and the cluster still serves
            assert worker_counts(client) == before
            assert "posteriors" in client.query("asia")

    def test_ops_that_are_not_rows_get_a_reply(self, cluster):
        async def scenario():
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           cluster.port)
            requests = [{"op": ["x"]}, {"op": {"a": 1}}] + [
                {"op": f"junk-{i}"} for i in range(500)]
            for i, request in enumerate(requests):
                writer.write(json.dumps({**request, "id": i}).encode()
                             + b"\n")
            await writer.drain()
            replies = [json.loads(await asyncio.wait_for(
                reader.readline(), 1.0 * TIME_SLACK)) for _ in requests]
            writer.close()
            return replies

        replies = asyncio.run(scenario())
        assert len(replies) == 502
        assert all(r["error"]["type"] == "QueryError" for r in replies)
        with cluster.client() as client:
            router = client.call("stats")["router"]
            text = client.call("metrics")["text"]
        assert router["requests"]["by_op"]["invalid"] >= 502
        assert len(router["requests"]["by_op"]) <= len(OPS) + 1
        series = [line for line in text.splitlines()
                  if line.startswith("fastbni_requests_by_op_total{")]
        assert len(series) <= len(OPS) + 1

    def test_cluster_stats_topology(self, cluster):
        with cluster.client() as client:
            client.query("asia")  # make the network known to the router
            stats = client.call("cluster_stats")
        assert stats["workers"] == 2
        assert stats["healthy"] == 2
        assert not stats["draining"]
        assert sorted(stats["ring"]["nodes"]) == ["w0", "w1"]
        assert stats["placement"]["asia"], "known model has no placement"
        assert set(stats["worker_restarts"]) == {"w0", "w1"}

    def test_sticky_session_round_trip(self, cluster):
        with cluster.client() as client:
            opened = client.session_open("asia", evidence={"smoke": "yes"})
            sid = opened["session"]
            result = client.session_query(sid, targets=["dysp"])
            assert "dysp" in result["posteriors"]
            stats = client.call("cluster_stats")
            assert stats["sticky_sessions"] == 1
            client.session_close(sid)
            assert client.call("cluster_stats")["sticky_sessions"] == 0

    def test_unknown_session_is_closed_error(self, cluster):
        with cluster.client() as client:
            with pytest.raises(SessionError):
                client.session_query("no-such-session")

    def test_aggregated_stats_and_metrics(self, cluster):
        with cluster.client() as client:
            client.query("asia")
            stats = client.call("stats")
            metrics = client.call("metrics")["text"]
        assert stats["cluster"]["workers"] == 2
        assert stats["requests"]["total"] >= 1
        assert set(stats["worker_stats"]) == {"w0", "w1"}
        assert stats["cluster"]["healthy"] == 2
        assert stats["router"]["requests"]["total"] >= 1
        # worker-labelled series for both workers, plus the aggregate
        assert 'fastbni_worker_up{worker="w0"} 1' in metrics
        assert 'fastbni_worker_up{worker="w1"} 1' in metrics
        assert "fastbni_requests_total" in metrics
        assert "fastbni_cluster_workers_healthy 2" in metrics

    def test_workers_share_one_plan_arena(self, cluster):
        """Both workers preloaded asia, and both map the one model file
        in the cluster's cache directory: one inode, one page-cache copy."""
        cache_dir = cluster.supervisor.cache_dir
        files = [f for f in os.listdir(cache_dir) if f.endswith(".npy")]
        assert len(files) == 1
        inodes = set()
        for worker in cluster.supervisor.workers.values():
            with open(f"/proc/{worker.pid}/maps") as maps:
                mapped = {int(line.split()[4]) for line in maps
                          if line.rstrip().endswith(files[0])}
            assert len(mapped) == 1, (worker.worker_id, mapped)
            inodes |= mapped
        assert inodes == {os.stat(os.path.join(cache_dir, files[0])).st_ino}


class TestClusterChaos:
    def test_kill_worker_respawn_and_sticky_survival(self):
        harness = ClusterHarness(workers=2, probe_interval_s=0.2)
        try:
            with harness.client(retries=8, retry_backoff_s=0.05) as client:
                opened = client.session_open("asia",
                                            evidence={"smoke": "yes"})
                sid = opened["session"]
                stats = client.call("stats")
                owner = next(
                    wid for wid, snap in stats["worker_stats"].items()
                    if snap["sessions"]["open"] > 0)
                victim = next(wid for wid in ("w0", "w1") if wid != owner)

                os.kill(harness.supervisor.workers[victim].pid,
                        signal.SIGKILL)
                # every request during the outage must still succeed:
                # placed ops fail over, the client retries rejections
                for _ in range(30):
                    result = client.query("asia")
                    assert "posteriors" in result
                # the session pinned to the surviving worker is untouched
                result = client.session_query(sid, targets=["dysp"])
                assert "dysp" in result["posteriors"]

                deadline = time.monotonic() + 60 * TIME_SLACK
                while time.monotonic() < deadline:
                    stats = client.call("cluster_stats")
                    if (stats["healthy"] == 2
                            and stats["worker_restarts"][victim] >= 1):
                        break
                    time.sleep(0.25)
                assert stats["healthy"] == 2, "worker never respawned"
                assert stats["restarts"] >= 1
                # respawned worker serves traffic again
                for _ in range(5):
                    client.query("asia")
        finally:
            harness.stop()

    def test_dead_workers_session_is_reported_closed(self):
        harness = ClusterHarness(workers=1, probe_interval_s=0.2,
                                 respawn=False)
        try:
            with harness.client() as client:
                sid = client.session_open("asia")["session"]
                victim = harness.supervisor.workers["w0"]
                os.kill(victim.pid, signal.SIGKILL)
                victim.proc.wait(timeout=30 * TIME_SLACK)
                # the sticky entry dies with its worker: the router
                # reports session_closed, not a raw connection error
                with pytest.raises(SessionError):
                    client.session_query(sid)
        finally:
            harness.stop()


class TestClusterDrain:
    def test_drain_finishes_inflight_and_stops_workers(self):
        harness = ClusterHarness(workers=2)
        cache_dir = harness.supervisor.cache_dir
        try:
            with harness.client() as client:
                client.query("asia")
                response = client.call("cluster_drain", timeout_s=20.0)
            assert response["drained"] is True
            assert response["reload"] is False
            assert response["workers"] == 2
            deadline = time.monotonic() + 30 * TIME_SLACK
            procs = list(harness.supervisor.workers.values())
            harness.stop()
            while time.monotonic() < deadline:
                if all(not w.alive() for w in procs):
                    break
                time.sleep(0.2)
            assert all(not w.alive() for w in procs)
            # the drain removed the workers' model-file directory
            assert harness.supervisor.cache_dir is None
            assert not os.path.exists(cache_dir)
        finally:
            harness.stop()

    def test_malformed_drain_leaves_the_cluster_serving(self):
        harness = ClusterHarness(workers=2)
        try:
            with harness.client() as client:
                with pytest.raises(ServiceError) as err:
                    client.call("cluster_drain", timeout_s="soon")
                assert err.value.error_type == "QueryError"
                assert "posteriors" in client.query("asia")
                response = client.call("cluster_drain", timeout_s=20.0)
            assert response["drained"] is True
        finally:
            harness.stop()

    def test_draining_router_rejects_new_work(self):
        harness = ClusterHarness(workers=1)
        try:
            with harness.client() as client:
                client.call("cluster_drain", timeout_s=10.0)
            with harness.client(connect_retry_s=1.0) as client:
                with pytest.raises(ServiceError):
                    client.query("asia")
        except ServiceError:
            # the listener may already be gone: equally correct
            pass
        finally:
            harness.stop()


# ------------------------------------------------------- client retry (S1)
class TestClientReconnect:
    """Transparent reconnect against a real server dying mid-stream."""

    @staticmethod
    def _spawn_worker(port: int):
        """One fixed-port worker subprocess, returned after READY."""
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "repro.cluster.worker",
               "--host", "127.0.0.1", "--port", str(port),
               "--worker-id", "w0", "--preload", "asia",
               "--options-json", json.dumps(WORKER_OPTIONS)]
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=env)
        line = proc.stdout.readline()
        payload = parse_ready(line.strip())
        assert payload and payload["port"] == port, f"no READY: {line!r}"
        # keep the pipe drained for the process's whole life
        threading.Thread(target=proc.stdout.read, daemon=True).start()
        return proc

    @staticmethod
    def _free_port() -> int:
        import socket
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_client_survives_server_restart_mid_stream(self):
        port = self._free_port()
        procs = [self._spawn_worker(port)]
        try:
            with ServiceClient("127.0.0.1", port, retries=8,
                               retry_backoff_s=0.1) as client:
                assert "posteriors" in client.query("asia")
                # kill the server out from under the live connection...
                procs[0].kill()
                procs[0].wait()
                # ...and restart it on the same port while the client is
                # already retrying (query is idempotent, so the client
                # may transparently reconnect and resend)
                timer = threading.Timer(
                    0.3,
                    lambda: procs.append(self._spawn_worker(port)))
                timer.start()
                try:
                    result = client.query("asia", evidence={"smoke": "yes"})
                finally:
                    timer.join()
                assert "posteriors" in result
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=10 * TIME_SLACK)

    def test_mutations_are_not_replayed_after_connection_loss(self):
        port = self._free_port()
        procs = [self._spawn_worker(port)]
        try:
            with ServiceClient("127.0.0.1", port, retries=5,
                               retry_backoff_s=0.05) as client:
                assert "posteriors" in client.query("asia")
                procs[0].kill()
                procs[0].wait()
                # server is back BEFORE the next call, so a retry would
                # succeed — yet session_open must not be resent: the
                # client cannot know whether the lost request executed
                procs.append(self._spawn_worker(port))
                with pytest.raises(ServiceError) as err:
                    client.session_open("asia")
                assert err.value.code == "connection_lost"
                # while an idempotent op on the very same client
                # reconnects transparently and succeeds
                assert "posteriors" in client.query("asia")
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=10 * TIME_SLACK)
