"""The process under test: spawned, driven one op at a time, always reaped.

Both targets are context managers with the same surface: ``pid``,
``load(lists)``, ``run_pass(index, want)`` and ``close()``.  ``LibTarget`` talks to
``lib_worker.py`` over pipes; ``ServerTarget`` speaks the JSON-lines
protocol to ``fastbni serve`` over one TCP connection on an ephemeral port.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from config import (REAP_TIMEOUT_S, REPLY_TIMEOUT_S, ROOT, Workload,
                    child_env, serve_command, worker_command)
from inputs import SESSION_TOKEN


@dataclass
class PassResult:
    latency_ns: list
    #: Op start stamps (``CLOCK_MONOTONIC`` ns), for span attribution.
    start_ns: list
    wall_ns: int
    cpu_s: float
    failed: int
    #: ``[(op index, case index, answer or None), ...]`` for the wanted ops.
    answers: list
    #: Median reply line length on the wire (0 for library passes).
    reply_bytes: float = 0.0


def cpu_seconds(pid: int) -> float:
    """On-CPU time of every thread of ``pid``, at nanosecond resolution."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat") as f:
            total += int(f.read().split()[0])
    return total / 1e9


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class _Target:
    proc: subprocess.Popen

    @property
    def pid(self) -> int:
        return self.proc.pid

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _reap(self) -> None:
        try:
            self.proc.wait(REAP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class LibTarget(_Target):
    def __init__(self, workload: Workload, trace_path=None) -> None:
        self.proc = subprocess.Popen(
            worker_command(workload.name, trace_path), cwd=ROOT,
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            #: ``kernels`` and ``plan_arena_bytes``, as in a server's info.
            self.info = self._read()
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("library worker exited without replying")
        return json.loads(line)

    def _send(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg).encode() + b"\n")
        self.proc.stdin.flush()
        return self._read()

    def load(self, lists: list) -> None:
        self._send({"cmd": "load", "lists": lists})

    def run_pass(self, index: int, want: list) -> PassResult:
        return PassResult(**self._send(
            {"cmd": "pass", "list": index, "want": want}))

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        self._reap()
        self.proc.stdout.close()


class ServerTarget(_Target):
    def __init__(self, workload: Workload, trace_path=None) -> None:
        self.sock = None
        self.proc = subprocess.Popen(
            serve_command(workload.network, trace_path), cwd=ROOT,
            env=child_env(), stdout=subprocess.PIPE)
        try:
            banner = self.proc.stdout.readline().decode()
            port = re.search(r"listening on [\w.]+:(\d+)", banner)
            if port is None:
                raise RuntimeError(f"server did not start: {banner!r}")
            self.sock = socket.create_connection(
                ("127.0.0.1", int(port.group(1))), timeout=REPLY_TIMEOUT_S)
            self.file = self.sock.makefile("rwb")
            self.info = self.call({"op": "info", "network": workload.network})
        except BaseException:
            self.close()
            raise

    def call(self, request: dict) -> dict:
        """One untimed request (``info``, ``stats``, ...); its ``result``."""
        self.file.write(json.dumps(request).encode() + b"\n")
        self.file.flush()
        reply = json.loads(self.file.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"{request['op']} failed: {reply}")
        return reply["result"]

    def load(self, lists: list) -> None:
        self.lists = lists
        self.encoded = [[json.dumps(op["request"]).encode() + b"\n"
                         for op in ops] for ops in lists]

    def run_pass(self, index: int, want: list) -> PassResult:
        """One closed-loop pass over the wire.

        Requests were encoded at load time and replies are decoded after
        the clock stops, so an op's latency is send-to-last-byte; only
        ``session_open`` replies are decoded in between (never inside a
        timed interval), for the session id the following requests carry.
        """
        ops, encoded = self.lists[index], self.encoded[index]
        file, clock = self.file, time.monotonic_ns
        latencies, starts, replies = [], [], []
        token, session = SESSION_TOKEN.encode(), b""
        failed = 0
        cpu = cpu_seconds(self.pid)
        begin = clock()
        for i, data in enumerate(encoded):
            data = data.replace(token, session)
            try:
                start = clock()
                file.write(data)
                file.flush()
                line = file.readline()
                end = clock()
            except OSError as exc:
                # A timeout or a dead connection leaves the stream in an
                # unknown state: this op and the rest of the pass failed.
                print(f"op {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += len(encoded) - i
                break
            latencies.append(end - start)
            starts.append(start)
            replies.append(line)
            if ops[i]["request"]["op"] == "session_open" and line:
                opened = json.loads(line)
                if opened.get("ok"):
                    session = opened["result"]["session"].encode()
        wall = clock() - begin
        cpu = cpu_seconds(self.pid) - cpu
        wanted = {op for op, _ in want}
        answers = []
        for i, line in enumerate(replies):
            reply = json.loads(line) if line else {}
            ok = bool(reply.get("ok"))
            if ok and ops[i]["request"]["op"] == "query":
                # serve_cold exists to time the cold path: a reply from
                # the memo or delta tier means the workload missed it.
                ok = reply["result"].get("served_by") == "batch"
            failed += not ok
            if i in wanted:
                answers.append((i, 0, reply["result"] if ok else None))
        return PassResult(latencies, starts, wall, cpu, failed, answers,
                          statistics.median(map(len, replies))
                          if replies else 0.0)

    def close(self) -> None:
        if self.sock is not None:
            self.file.close()
            self.sock.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        self._reap()
        self.proc.stdout.close()
