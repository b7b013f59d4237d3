"""Shared constants for the cluster tier's process-boundary contracts.

Two small contracts live here so worker, supervisor, and router cannot
drift apart (which wire ops the router places, pins or answers itself is
the op table, :data:`repro.service.ops.OPS`):

* the **READY handshake** — a spawned worker prints one
  ``FASTBNI_WORKER_READY {json}`` line on stdout once its listener is
  bound, carrying the actual port (workers bind port 0) and pid;
* the **shared-memory naming scheme** for plan arenas, so the worker
  that publishes a segment and the supervisor that sweeps orphans agree
  on the prefix.
"""

from __future__ import annotations

import json
import re
from hashlib import blake2b

#: Sentinel prefix of the one stdout line a worker prints when its
#: listener is bound; the remainder of the line is a JSON object with
#: ``port`` and ``pid``.
READY_PREFIX = "FASTBNI_WORKER_READY "

#: Default prefix for the cluster's named shared-memory segments; the
#: supervisor derives a per-cluster-instance prefix from it so two
#: clusters on one host never cross-attach.
SEGMENT_PREFIX = "fbni_arena_"


def ready_line(port: int, pid: int) -> str:
    return READY_PREFIX + json.dumps({"port": port, "pid": pid})


def parse_ready(line: str) -> dict | None:
    """The handshake payload if ``line`` is a READY line, else ``None``."""
    if not line.startswith(READY_PREFIX):
        return None
    try:
        payload = json.loads(line[len(READY_PREFIX):])
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


def segment_name(prefix: str, network: str, fingerprint: int) -> str:
    """Deterministic segment name for one model's plan base buffer.

    Every worker of one cluster must derive the same name for the same
    compiled plan (that is what makes them attach to one segment), and
    the name must be shm-safe — model names can contain ``/`` or be
    arbitrarily long, so the network name is sanitised and hashed
    together with the plan fingerprint (clique-entry count: two workers
    whose compiles disagree must *not* share bytes).
    """
    slug = re.sub(r"[^A-Za-z0-9_]", "_", network)[:32]
    digest = blake2b(f"{network}\x00{fingerprint}".encode(),
                     digest_size=6).hexdigest()
    return f"{prefix}{slug}_{digest}"
