"""Cluster worker entry point: ``python -m repro.cluster.worker``.

One worker is the existing :class:`~repro.service.server.InferenceServer`
run in worker mode:

* binds an ephemeral port and reports it to the supervisor by printing
  one :data:`~repro.cluster.protocol.READY_PREFIX` line on stdout (the
  handshake — stdout is otherwise unused);
* stamps every health/stats response with its ``worker_id`` so the
  router's aggregation can label per-worker series;
* publishes each compiled plan's clique base tables into a named
  shared-memory segment (:func:`repro.parallel.sharedmem.share_readonly`)
  via the registry's ``on_load`` hook — the first worker to compile a
  model owns the segment, every replica attaches read-only, so N
  replicas of one model cost one copy of its clique tables;
* watches its parent: if the supervisor dies (``getppid`` changes), the
  worker SIGTERMs itself rather than lingering orphaned;
* drains gracefully on SIGTERM (``run_server``'s handler): stops
  accepting, finishes in-flight, flushes the batcher, releases its
  shared segments.

Workers are an implementation detail of :mod:`repro.cluster.supervisor`;
nothing else should spawn them directly.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import threading
import time

from repro.cluster.protocol import SEGMENT_PREFIX, ready_line, segment_name
from repro.parallel.sharedmem import SEGMENTS, share_readonly
from repro.service.server import run_server


def make_share_plan_hook(prefix: str):
    """Registry ``on_load`` hook publishing/attaching plan base arenas."""

    def share_plan(name: str, engine) -> None:
        plan = getattr(engine, "plan", None)
        if plan is None:
            return
        seg = segment_name(prefix, name, plan.spec.clique_entries)
        flat, _ = share_readonly(seg, lambda: plan.base_flat)
        plan.adopt_base(flat)

    return share_plan


def _watch_parent(parent_pid: int, poll_s: float = 1.0) -> None:
    """SIGTERM ourselves when the supervisor process disappears."""

    def watch() -> None:
        while True:
            time.sleep(poll_s)
            if os.getppid() != parent_pid:
                os.kill(os.getpid(), signal.SIGTERM)
                return

    threading.Thread(target=watch, name="parent-watchdog",
                     daemon=True).start()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cluster.worker",
        description="One fastbni cluster worker (internal entry point).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 = ephemeral; the bound port is reported "
                             "on the READY line")
    parser.add_argument("--worker-id", required=True)
    parser.add_argument("--parent-pid", type=int, default=0,
                        help="supervisor pid; worker exits if it changes")
    parser.add_argument("--preload", default="",
                        help="comma-separated model names to compile "
                             "before reporting READY")
    parser.add_argument("--segment-prefix", default=SEGMENT_PREFIX,
                        help="shared-memory namespace for plan arenas")
    parser.add_argument("--options-json", default="{}",
                        help="JSON dict of InferenceServer knobs")
    args = parser.parse_args(argv)

    options = json.loads(args.options_json)
    options.setdefault("worker_id", args.worker_id)
    options.setdefault("on_load",
                       make_share_plan_hook(args.segment_prefix))
    preload = [n for n in args.preload.split(",") if n]

    def on_ready(server) -> None:
        print(ready_line(server.port, os.getpid()), flush=True)

    if args.parent_pid:
        _watch_parent(args.parent_pid)
    try:
        asyncio.run(run_server(args.host, args.port, preload=preload,
                               on_ready=on_ready, **options))
    finally:
        # A SIGKILLed worker cannot reach this; the supervisor's segment
        # sweep covers that case.
        SEGMENTS.release_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
