"""Inference service layer: serve compiled networks behind a long-lived process.

The one-shot CLI pays junction-tree compilation and baseline calibration
on every invocation; this package amortises both behind an asyncio server:

* :class:`~repro.service.registry.ModelRegistry` — compiled-model cache
  (LRU under a byte budget, serialized-tree warm start, resident
  calibrated baselines);
* :class:`~repro.service.batcher.MicroBatcher` — dynamic micro-batching of
  concurrent single-case queries into batched
  :meth:`~repro.core.FastBNI.infer_cases` calibrations (or, for models
  the :class:`~repro.approx.QueryPlanner` routes to sampling, one shared
  :class:`~repro.approx.ApproxBNI` particle population per flush);
* :class:`~repro.service.cache.InferenceCache` — query-result memo per
  resident model: a query seen twice before never touches the tree;
* :class:`~repro.service.sessions.SessionManager` — streaming evidence
  sessions: per-session evidence read by one whole-case call, with byte
  accounting folded into the registry budget, idle-TTL/LRU eviction and
  pin-backed lifecycle;
* :class:`~repro.service.server.InferenceServer` — JSON-lines-over-TCP
  front end (``query``, ``query_batch``, ``mpe``, ``info``,
  ``session_open``/``session_update``/``session_query``/``session_close``,
  ``health``, ``stats``, ``cache_stats``), replies encoded by orjson;
* :class:`~repro.service.metrics.ServiceMetrics` — latency percentiles,
  batch-fill histograms, cache hit rate, throughput;
* :class:`~repro.service.client.ServiceClient` — blocking client for CLI,
  CI smoke checks and closed-loop benchmarks.

Start one with ``fastbni serve`` and query it with ``fastbni client``.
"""

from repro.service.batcher import MicroBatcher, QueryRequest
from repro.service.cache import InferenceCache
from repro.service.client import ServiceClient, Session
from repro.service.metrics import ServiceMetrics
from repro.service.registry import ModelEntry, ModelRegistry, resolve_network
from repro.service.server import InferenceServer, run_server
from repro.service.sessions import SessionManager

__all__ = [
    "InferenceCache",
    "InferenceServer",
    "MicroBatcher",
    "ModelEntry",
    "ModelRegistry",
    "QueryRequest",
    "ServiceClient",
    "ServiceMetrics",
    "Session",
    "SessionManager",
    "resolve_network",
    "run_server",
]
