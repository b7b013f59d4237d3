"""Multi-process sharded serving: router, workers, placement, supervision.

The single-process server (:mod:`repro.service.server`) tops out at one
core — its kernels hold the GIL.  This package turns it into a cluster
while keeping the wire protocol byte-identical, so every existing client
(:class:`repro.service.ServiceClient`, the async benchmark harnesses,
``fastbni client``) works against the router unchanged:

* :mod:`repro.cluster.placement` — consistent-hash ring with virtual
  nodes mapping model names onto workers, minimal movement on
  membership change, and QPS-driven hot-model replication.
* :mod:`repro.cluster.worker` — one worker process: the existing
  :class:`~repro.service.server.InferenceServer` in worker mode (stamped
  ``worker_id``, model tables mapped from one shared model file, parent
  watchdog, SIGTERM graceful drain).
* :mod:`repro.cluster.supervisor` — spawns worker subprocesses, performs
  the READY handshake, respawns the dead, owns the workers' model-file
  directory.
* :mod:`repro.cluster.router` — the asyncio front process: consistent-
  hash + sticky-session routing, per-worker bounded in-flight windows
  with ``overloaded`` backpressure, health-probe ejection, metrics
  aggregation (``stats``/``metrics`` answer for the whole cluster), and
  ``cluster_drain`` for graceful shutdown / live reload.

``fastbni cluster --workers N`` is the CLI entry;
``python -m repro.cluster.worker`` is the (internal) worker entry.
"""

from repro.cluster.placement import HashRing
from repro.cluster.router import ClusterRouter, run_cluster
from repro.cluster.supervisor import Supervisor, WorkerProcess

__all__ = [
    "ClusterRouter",
    "HashRing",
    "Supervisor",
    "WorkerProcess",
    "run_cluster",
]
