"""Worker-process lifecycle: spawn, handshake, respawn, cleanup.

The supervisor owns the worker subprocesses and nothing else — routing
is the router's job.  Separating the two keeps every blocking syscall
(``Popen``, ``wait``, pipe reads) out of the router's event loop; the
router calls supervisor methods through an executor.

Spawn contract: a worker is started as ``python -m repro.cluster.worker``
with an ephemeral port and reports the bound port by printing one
:data:`~repro.cluster.protocol.READY_PREFIX` line on stdout.  A reader
thread per worker consumes stdout for the process's whole life (a filled
pipe would block the child), delivering the handshake payload and
discarding the rest.

Cleanup contract: SIGTERM first (the worker drains gracefully), SIGKILL
stragglers after the grace period, then sweep this cluster's
shared-memory segments — a SIGKILLed worker cannot release the plan
arenas it owned, so :func:`repro.parallel.sharedmem.cleanup_segments`
reclaims them by prefix.  The prefix embeds the supervisor pid, so two
clusters on one host never sweep each other.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.cluster.protocol import SEGMENT_PREFIX, parse_ready
from repro.errors import ServiceError
from repro.parallel.sharedmem import cleanup_segments

DEFAULT_SPAWN_TIMEOUT_S = 120.0
DEFAULT_GRACE_S = 10.0


@dataclass
class WorkerProcess:
    """One live (or once-live) worker subprocess."""

    worker_id: str
    proc: subprocess.Popen
    port: int
    pid: int
    restarts: int = 0
    _ready_queue: queue.Queue = field(default=None, repr=False)

    def alive(self) -> bool:
        return self.proc.poll() is None


class Supervisor:
    """Spawns and tracks N worker subprocesses for one cluster."""

    def __init__(self, worker_count: int, *, host: str = "127.0.0.1",
                 preload=(), options: dict | None = None,
                 segment_prefix: str | None = None,
                 spawn_timeout_s: float = DEFAULT_SPAWN_TIMEOUT_S,
                 python: str = sys.executable) -> None:
        if worker_count <= 0:
            raise ServiceError(
                f"cluster needs at least one worker, got {worker_count}")
        self.worker_count = worker_count
        self.host = host
        self.preload = tuple(preload)
        #: JSON-able InferenceServer knobs forwarded to every worker
        #: (max_batch, cache budgets, trace knobs, ...).
        self.options = dict(options or {})
        self.segment_prefix = (segment_prefix if segment_prefix is not None
                               else f"{SEGMENT_PREFIX}{os.getpid()}_")
        self.spawn_timeout_s = spawn_timeout_s
        self.python = python
        self.workers: dict[str, WorkerProcess] = {}
        self._restarts = 0
        self._lock = threading.Lock()

    @property
    def restarts(self) -> int:
        return self._restarts

    # ------------------------------------------------------------- spawning
    def _spawn_process(self, worker_id: str) -> tuple[subprocess.Popen,
                                                      queue.Queue]:
        cmd = [
            self.python, "-m", "repro.cluster.worker",
            "--host", self.host,
            "--port", "0",
            "--worker-id", worker_id,
            "--parent-pid", str(os.getpid()),
            "--segment-prefix", self.segment_prefix,
            "--options-json", json.dumps(self.options),
        ]
        if self.preload:
            cmd += ["--preload", ",".join(self.preload)]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = (src_root + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_root)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=env)
        ready: queue.Queue = queue.Queue()

        def drain() -> None:
            # Owns stdout for the child's whole life so the pipe can
            # never fill; only the READY line is interesting.
            for line in proc.stdout:
                payload = parse_ready(line.strip())
                if payload is not None:
                    ready.put(payload)
            proc.stdout.close()

        threading.Thread(target=drain, daemon=True,
                         name=f"stdout-{worker_id}").start()
        return proc, ready

    def spawn(self, worker_id: str) -> WorkerProcess:
        """Start one worker and block until its READY handshake."""
        proc, ready = self._spawn_process(worker_id)
        deadline = time.monotonic() + self.spawn_timeout_s
        while True:
            try:
                payload = ready.get(timeout=0.2)
                break
            except queue.Empty:
                if proc.poll() is not None:
                    raise ServiceError(
                        f"worker {worker_id} exited with code "
                        f"{proc.returncode} before READY") from None
                if time.monotonic() >= deadline:
                    proc.kill()
                    proc.wait()
                    raise ServiceError(
                        f"worker {worker_id} not READY within "
                        f"{self.spawn_timeout_s:.0f}s") from None
        worker = WorkerProcess(worker_id=worker_id, proc=proc,
                               port=int(payload["port"]),
                               pid=int(payload.get("pid", proc.pid)),
                               _ready_queue=ready)
        with self._lock:
            previous = self.workers.get(worker_id)
            worker.restarts = previous.restarts if previous else 0
            self.workers[worker_id] = worker
        return worker

    def start_all(self) -> list[WorkerProcess]:
        return [self.spawn(f"w{i}") for i in range(self.worker_count)]

    def respawn(self, worker_id: str) -> WorkerProcess:
        """Replace a dead (or wedged) worker with a fresh process."""
        with self._lock:
            old = self.workers.get(worker_id)
        if old is not None and old.alive():
            old.proc.kill()
            old.proc.wait()
        worker = self.spawn(worker_id)
        with self._lock:
            worker.restarts = (old.restarts + 1) if old else 1
            self._restarts += 1
        return worker

    # -------------------------------------------------------------- teardown
    def stop_all(self, grace_s: float = DEFAULT_GRACE_S) -> list[str]:
        """SIGTERM every worker, SIGKILL stragglers, sweep segments.

        Returns the names of any shared-memory segments the sweep had to
        reclaim (non-empty means a worker died without releasing — e.g.
        the chaos test's SIGKILL).
        """
        with self._lock:
            workers = list(self.workers.values())
            self.workers.clear()
        for worker in workers:
            if worker.alive():
                try:
                    worker.proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + grace_s
        for worker in workers:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                worker.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait()
        return cleanup_segments(self.segment_prefix)
