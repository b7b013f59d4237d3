"""The cluster tier's process-boundary contract: the READY handshake.

It lives here so worker and supervisor cannot drift apart (which wire
ops the router places, pins or answers itself is the op table,
:data:`repro.service.ops.OPS`): a spawned worker prints one
``FASTBNI_WORKER_READY {json}`` line on stdout once its listener is
bound, carrying the actual port (workers bind port 0) and pid.
"""

from __future__ import annotations

import json

#: Sentinel prefix of the one stdout line a worker prints when its
#: listener is bound; the remainder of the line is a JSON object with
#: ``port`` and ``pid``.
READY_PREFIX = "FASTBNI_WORKER_READY "


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

