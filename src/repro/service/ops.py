"""The wire-op table: one row per op the server and the cluster router speak.

A row holds the op's request fields (kind, required, and the error class a
malformed value gets), its routing class, and whether it is idempotent (a
client may resend it after a dropped connection) and drain-safe (a
draining server still answers it).  Server dispatch, router routing, the
client's retry set and the CLI's ``--op`` all read it: adding an op is one
row plus one ``_op_<name>`` method.
"""

from __future__ import annotations

import sys
from types import MappingProxyType
from typing import NamedTuple

from repro.approx.planner import POLICIES
from repro.errors import EvidenceError, QueryError

#: Routing classes: ``placed`` ops hash their network onto the ring,
#: ``open`` (session_open) is placed and pins the session to its worker,
#: ``sticky`` ops follow that pin, ``local`` ops are answered by whichever
#: process gets them, ``router`` ops exist only on a cluster router.
PLACED, OPEN, STICKY = "placed", "open", "sticky"
LOCAL, ROUTER = "local", "router"

#: Field kind → (what a valid value is, parser returning None on reject).
_KINDS = {
    "string": ("a non-empty string",
               lambda v: v if isinstance(v, str) and v else None),
    "object": ("a JSON object", lambda v: v if isinstance(v, dict) else None),
    "names": ("a variable name or a list of them",
              lambda v: (v,) if isinstance(v, str) else tuple(v)
              if isinstance(v, list) and all(isinstance(n, str) for n in v)
              else None),
    "bool": ("true or false", lambda v: v if isinstance(v, bool) else None),
    "engine": (f"one of {POLICIES}",
               lambda v: v if isinstance(v, str) and v in POLICIES else None),
    "cases": ("a non-empty list of evidence objects",
              lambda v: v if isinstance(v, list) and v else None),
    "number": ("a finite number >= 0",
               lambda v: float(v) if type(v) in (int, float)
               and 0 <= v <= sys.float_info.max else None),
}


class Field(NamedTuple):
    name: str
    kind: str
    required: bool = False
    error: type = QueryError


class Op(NamedTuple):
    name: str
    route: str
    fields: tuple = ()
    idempotent: bool = False
    drain_safe: bool = False

    def parse(self, request: dict) -> dict:
        """The declared fields of ``request``, validated; an absent (or
        null) optional field is left out, so handlers keep their defaults."""
        fields = {}
        for field in self.fields:
            value = request.get(field.name)
            what, parse = _KINDS[field.kind]
            if value is None:
                if field.required:
                    raise field.error(
                        f"op {self.name!r} requires {field.name!r}: {what}")
            elif (parsed := parse(value)) is None:
                raise field.error(
                    f"{field.name} must be {what}, got {value!r:.60}")
            else:
                fields[field.name] = parsed
        return fields


_NETWORK = Field("network", "string", required=True)
_SESSION = Field("session", "string", required=True)
_EVIDENCE = Field("evidence", "object", error=EvidenceError)
_TARGETS = Field("targets", "names")
_ENGINE = Field("engine", "engine")

OPS = MappingProxyType({op.name: op for op in (
    Op("query", PLACED, (_NETWORK, _EVIDENCE,
                         Field("soft_evidence", "object", error=EvidenceError),
                         _TARGETS, _ENGINE), idempotent=True),
    Op("query_batch", PLACED, (_NETWORK, Field("cases", "cases", required=True),
                               _TARGETS, _ENGINE), idempotent=True),
    Op("mpe", PLACED, (_NETWORK, _EVIDENCE, _ENGINE), idempotent=True),
    Op("info", PLACED, (_NETWORK, _ENGINE), idempotent=True),
    Op("session_open", OPEN, (_NETWORK, _EVIDENCE, _ENGINE)),
    Op("session_update", STICKY, (_SESSION, _EVIDENCE, Field("retract", "names"),
                                  Field("replace", "bool"), _TARGETS)),
    Op("session_query", STICKY, (_SESSION, _TARGETS), idempotent=True),
    # Drain-safe: releasing state is exactly what a drain wants.
    Op("session_close", STICKY, (_SESSION,), drain_safe=True),
    Op("health", LOCAL, idempotent=True, drain_safe=True),
    Op("stats", LOCAL, idempotent=True, drain_safe=True),
    Op("stats_reset", LOCAL, drain_safe=True),
    Op("cache_stats", LOCAL, idempotent=True, drain_safe=True),
    Op("metrics", LOCAL, idempotent=True, drain_safe=True),
    Op("slow_queries", LOCAL, idempotent=True, drain_safe=True),
    Op("trace_dump", LOCAL, idempotent=True, drain_safe=True),
    Op("cluster_stats", ROUTER, idempotent=True),
    Op("cluster_drain", ROUTER, (Field("reload", "bool"),
                                 Field("timeout_s", "number"))),
)})


def lookup(op, table=OPS) -> Op:
    """The row for a request's ``op``; a QueryError names ``table``'s ops."""
    if isinstance(op, str) and op in table:
        return table[op]
    raise QueryError(f"unknown op {op!r:.60}; expected one of "
                     f"{', '.join(table)}")
