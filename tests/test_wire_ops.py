"""The wire-op table (:mod:`repro.service.ops`) and what reads it.

Every op's fields, routing class and retry/drain flags are one row; these
tests check that the server, the router, the client and the CLI agree
with the table, and that requests the table rejects get an error reply
under a bounded metrics label.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.cluster.router import ClusterRouter, WorkerHandle
from repro.errors import EvidenceError, QueryError
from repro.service import InferenceServer, ServiceClient
from repro.service.ops import LOCAL, OPS, ROUTER, lookup
from tests.test_sessions import _reference_line


def run(coro):
    return asyncio.run(coro)


async def _pipeline(port: int, requests: list[dict],
                    timeout_s: float = 30.0) -> list[dict]:
    """Send ``requests`` on one connection; replies in request order."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for i, request in enumerate(requests):
        writer.write(json.dumps({**request, "id": i}).encode() + b"\n")
    await writer.drain()
    replies = [json.loads(await asyncio.wait_for(reader.readline(), timeout_s))
               for _ in requests]
    writer.close()
    return sorted(replies, key=lambda r: r["id"])


def _by_op_series(text: str) -> list[str]:
    return [line for line in text.splitlines()
            if line.startswith("fastbni_requests_by_op_total{")]


class TestTable:
    def test_rows_are_well_formed(self):
        kinds = {"string", "object", "names", "bool", "engine", "cases",
                 "number"}
        for name, row in OPS.items():
            assert row.name == name
            assert row.route in {"placed", "open", "sticky", LOCAL, ROUTER}
            assert all(f.kind in kinds for f in row.fields)
            assert all(f.error in (QueryError, EvidenceError)
                       for f in row.fields)
        with pytest.raises(TypeError):
            OPS["frobnicate"] = OPS["query"]

    def test_every_row_has_its_handlers(self):
        for row in OPS.values():
            if row.route != ROUTER:
                assert callable(getattr(InferenceServer, f"_op_{row.name}"))
            if row.route in (LOCAL, ROUTER):
                assert callable(getattr(ClusterRouter, f"_op_{row.name}"))

    def test_cli_op_choices_are_the_table(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        op = next(a for a in sub.choices["client"]._actions
                  if a.dest == "op")
        assert list(op.choices) == [*OPS, "session_demo"]
        assert build_parser().parse_args(
            ["client", "--op", "session_demo"]).op == "session_demo"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "--op", "frobnicate"])

    @pytest.mark.parametrize("op", [["x"], {"a": 1}, None, 7, "frobnicate"])
    def test_lookup_rejects_what_is_not_a_row(self, op):
        with pytest.raises(QueryError, match="unknown op"):
            lookup(op)

    def test_parse_converts_and_leaves_absent_fields_out(self):
        fields = OPS["session_update"].parse(
            {"session": "s", "retract": "a", "targets": [], "replace": True,
             "evidence": None})
        assert fields == {"session": "s", "retract": ("a",), "targets": (),
                          "replace": True}
        assert OPS["cluster_drain"].parse({"timeout_s": 3}) == {
            "timeout_s": 3.0}
        for bad in (-1, float("nan"), float("inf"), True, 10 ** 400):
            with pytest.raises(QueryError, match="timeout_s"):
                OPS["cluster_drain"].parse({"timeout_s": bad})


class TestServerConformance:
    def test_wrong_typed_fields_get_their_error_type(self,
                                                     wrong_typed_requests):
        cases = [(req, want) for route, req, want in wrong_typed_requests
                 if route != ROUTER]

        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                return await _pipeline(server.port, [r for r, _ in cases])
            finally:
                await server.stop()

        replies = run(scenario())
        assert len(replies) == len(cases) > 20
        for (request, want), reply in zip(cases, replies):
            assert reply["ok"] is False, request
            assert reply["error"]["type"] == want, (request, reply)

    def test_router_only_ops_are_unknown_to_a_server(self):
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                return await _pipeline(server.port, [
                    {"op": name} for name, row in OPS.items()
                    if row.route == ROUTER])
            finally:
                await server.stop()

        for reply in run(scenario()):
            assert reply["error"]["type"] == "QueryError"
            assert "unknown op" in reply["error"]["message"]

    def test_non_string_ops_get_a_reply(self):
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                replies = await _pipeline(
                    server.port, [{"op": ["x"]}, {"op": {"a": 1}}],
                    timeout_s=1.0)
                (health,) = await _pipeline(server.port, [{"op": "health"}])
            finally:
                await server.stop()
            return replies, health

        replies, health = run(scenario())
        for reply in replies:
            assert reply["ok"] is False
            assert reply["error"]["type"] == "QueryError"
        assert health["ok"] is True

    def test_junk_op_names_share_one_metrics_label(self):
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                replies = await _pipeline(
                    server.port, [{"op": f"junk-{i}"} for i in range(500)])
                return (replies, server.metrics.snapshot(),
                        server._op_metrics()["text"])
            finally:
                await server.stop()

        replies, snapshot, text = run(scenario())
        assert all(r["error"]["type"] == "QueryError" for r in replies)
        by_op = snapshot["requests"]["by_op"]
        assert by_op == {"invalid": 500}
        assert len(by_op) <= len(OPS) + 1
        assert len(_by_op_series(text)) <= len(OPS) + 1

    def test_string_replace_is_rejected_and_the_session_kept(self):
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                (opened,) = await _pipeline(server.port, [{
                    "op": "session_open", "network": "asia",
                    "evidence": {"smoke": "yes", "xray": "yes"}}])
                sid = opened["result"]["session"]
                return await _pipeline(server.port, [
                    {"op": "session_update", "session": sid,
                     "evidence": {"dysp": "yes"}, "replace": "false"},
                    {"op": "session_query", "session": sid,
                     "targets": ["lung"]},
                ])
            finally:
                await server.stop()

        rejected, after = run(scenario())
        assert rejected["ok"] is False
        assert rejected["error"]["type"] == "QueryError"
        assert "replace" in rejected["error"]["message"]
        assert after["ok"] is True
        assert after["result"]["evidence_vars"] == 2


class TestReplyEncoding:
    def test_every_op_decodes_like_the_stdlib_walk(self, monkeypatch):
        """A live reply of every served op (exact, soft, prior and approx
        queries among them) decodes equal — float ``==`` — to the stdlib
        encoding of the element-by-element walk."""
        checked = []
        encode = InferenceServer._encode

        def spy(payload):
            line = encode(payload)
            checked.append((payload.get("result"), json.loads(line),
                            _reference_line(payload)))
            return line

        monkeypatch.setattr(InferenceServer, "_encode", staticmethod(spy))

        async def scenario():
            server = InferenceServer(
                port=0, trace_sample_rate=1.0, trace_slow_ms=0.0,
                approx_options={"num_samples": 256, "max_samples": 256,
                                "seed": 3})
            await server.start()
            try:
                placed = await _pipeline(server.port, [
                    {"op": "query", "network": "asia",
                     "evidence": {"smoke": "yes"}},
                    {"op": "query", "network": "asia",
                     "evidence": {"smoke": "yes", "xray": [0.7, 0.3]},
                     "targets": ["lung"]},
                    {"op": "query", "network": "asia", "targets": ["lung"]},
                    {"op": "query", "network": "asia", "engine": "approx",
                     "evidence": {"smoke": "yes"}},
                    {"op": "query_batch", "network": "asia",
                     "cases": [{"smoke": "yes"}, {"xray": "no"}]},
                    {"op": "query_batch", "network": "asia",
                     "engine": "approx", "cases": [{"smoke": "no"}]},
                    {"op": "mpe", "network": "asia",
                     "evidence": {"smoke": "yes"}},
                    {"op": "info", "network": "asia"},
                    {"op": "session_open", "network": "asia",
                     "evidence": {"smoke": "yes"}},
                ])
                sid = placed[-1]["result"]["session"]
                sticky = await _pipeline(server.port, [
                    {"op": "session_update", "session": sid,
                     "evidence": {"xray": "yes"}, "targets": []},
                    {"op": "session_query", "session": sid,
                     "targets": ["lung"]},
                    {"op": "session_close", "session": sid},
                ])
                local = await _pipeline(server.port, [
                    {"op": name} for name, row in OPS.items()
                    if row.route == LOCAL and name != "stats_reset"])
                reset = await _pipeline(server.port, [{"op": "stats_reset"}])
            finally:
                await server.stop()
            return placed + sticky + local + reset

        replies = run(scenario())
        assert all(reply["ok"] for reply in replies), replies
        served = {name for name, row in OPS.items() if row.route != ROUTER}
        assert len(replies) == len(checked) == len(served) + 4
        for _, decoded, reference in checked:
            assert decoded == reference
        # Posteriors reach the encoder as ndarrays: no walk runs first.
        posteriors = [vector for result, _, _ in checked
                      for vector in result.get("posteriors", {}).values()]
        assert len(posteriors) > 20
        assert all(isinstance(vector, np.ndarray) for vector in posteriors)

    def test_an_id_past_64_bits_gets_an_internal_error_reply(self):
        """``json.loads`` accepts any int but the encoder stops at 64
        bits: the stdlib fallback answers with the id echoed."""
        async def scenario():
            server = InferenceServer(port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                for request_id in (2 ** 70, 2 ** 64 - 1):
                    writer.write(json.dumps({
                        "id": request_id, "op": "health"}).encode() + b"\n")
                await writer.drain()
                lines = [await asyncio.wait_for(reader.readline(), 30)
                         for _ in range(2)]
                writer.close()
            finally:
                await server.stop()
            return [json.loads(line) for line in lines]

        replies = {reply["id"]: reply for reply in run(scenario())}
        huge = replies[2 ** 70]
        assert huge["ok"] is False
        assert huge["error"]["type"] == "InternalError"
        assert "64-bit" in huge["error"]["message"]
        assert replies[2 ** 64 - 1]["ok"] is True


class TestWorkerHop:
    def test_torn_lines_drop_and_unencodable_bodies_leave_nothing_pending(
            self):
        """The router's hop: requests go out through the reply encoder,
        replies come back through ``orjson.loads``; a torn reply line is
        dropped, and a body the encoder rejects raises before any future
        is registered."""
        received = []

        async def fake_worker(reader, writer):
            while line := await reader.readline():
                request = json.loads(line)
                received.append(request)
                writer.write(b'{"id": ' + str(request["id"]).encode()
                             + b', "ok"\n')  # torn
                writer.write(json.dumps({"id": request["id"], "ok": True,
                                         "result": {"x": 0.1}}).encode()
                             + b"\n")
                await writer.drain()
            writer.close()

        async def scenario():
            worker = await asyncio.start_server(fake_worker, "127.0.0.1", 0)
            handle = WorkerHandle("w0", "127.0.0.1",
                                  worker.sockets[0].getsockname()[1])
            await handle.connect()
            try:
                reply = await handle.call("info", {"network": "asia"},
                                          timeout_s=10)
                with pytest.raises(TypeError):
                    await handle.call("query", {"network": "asia",
                                                "evidence": {"a": 2 ** 70}})
                return reply, handle.inflight
            finally:
                await handle.close()
                worker.close()
                await worker.wait_closed()

        reply, inflight = run(scenario())
        assert reply == {"id": 1, "ok": True, "result": {"x": 0.1}}
        assert received == [{"network": "asia", "id": 1, "op": "info"}]
        assert inflight == 0


class TestClientRetrySet:
    def test_only_idempotent_rows_are_resent(self, monkeypatch):
        """A dropped connection is retried for idempotent rows only."""
        client = ServiceClient.__new__(ServiceClient)
        client.retries, client.retry_backoff_s = 2, 0.0
        sent = []

        def drop(op, fields):
            from repro.errors import ServiceError

            sent.append(op)
            raise ServiceError("gone", code="connection_lost")

        monkeypatch.setattr(client, "_request_once", drop)
        for name, row in OPS.items():
            sent.clear()
            with pytest.raises(Exception):
                client.request(name)
            assert len(sent) == (3 if row.idempotent else 1), name
