"""Deterministic service traffic traces: generate, record, replay.

The service benches so far each drive one synthetic shape (uniform
random evidence, fixed-overlap session walks).  Real traffic is none of
those: it is skewed (a few hot evidence patterns dominate), bursty
(arrivals cluster), heterogeneous (cheap sparse networks next to dense
ones the planner must route away from exact), and stateful (session
walks interleaved with one-shot queries).  This module makes that
diversity a first-class, *reproducible* artifact:

* :func:`generate_trace` builds a seeded :class:`TrafficTrace` mixing
  five streams — zipfian hot-evidence reuse, burst arrivals, adversarial
  dense-network queries, explicit-approx sampling traffic, and session
  open/update/query/close walks — with per-event arrival offsets;
* :func:`save_trace` / :func:`load_trace` round-trip a trace through
  JSON bit-identically, so the exact request sequence a number was
  measured on ships with the number;
* :func:`replay_trace_async` drives a live server with a trace over ``C``
  persistent closed-loop connections (optionally paced by the recorded
  arrival times), returning throughput, latency quantiles, and the
  per-event answers for deterministic events;
* :class:`TrafficRecorder` is a transparent JSON-lines proxy that sits
  in front of a live server and captures its real traffic as a trace
  that replays bit-identically (session ids are rewritten to logical
  ids at record time, and re-mapped to fresh server ids at replay).

Every event carries a ``check`` flag: ``True`` marks events whose
answers are deterministic across server configurations (explicit-exact
queries and session reads — the junction tree is order-independent),
so an ablation run can assert answer agreement on them while stochastic
streams (approx sampling, auto-routing) contribute load and routing
coverage only.  The ablation matrix (:mod:`repro.bench.ablation_matrix`)
is the primary consumer.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bench.artifact import Command, Flag
from repro.bn.sampling import forward_sample, generate_test_cases
from repro.errors import QueryError

SCHEMA = "fastbni-traffic-v1"

#: Default stream mix (fractions of the event budget).  ``session``
#: counts *events* (open/update/query/close all spend budget), so walk
#: traffic competes for the same request slots as one-shot queries.
DEFAULT_MIX = {
    "zipf": 0.40,
    "burst": 0.15,
    "dense": 0.15,
    "approx": 0.10,
    "session": 0.20,
}

#: Zipf exponent for hot-evidence reuse: rank r drawn with p ∝ 1/r^s.
DEFAULT_ZIPF_S = 1.1
#: Distinct evidence patterns in the zipf pool.
DEFAULT_HOT_POOL = 16
#: Requests per burst; bursts land near-simultaneously.
DEFAULT_BURST_SIZE = 8
#: Mean arrival gap (ms) used to spread events over the trace timeline.
DEFAULT_GAP_MS = 2.0
#: Session-walk shape: evidence edits per walk (plus open/close).
DEFAULT_WALK_UPDATES = 4


# --------------------------------------------------------------------- trace
@dataclass
class TrafficTrace:
    """A serialized request sequence: networks + time-stamped events.

    ``networks`` maps each referenced network name to a *spec* that
    rebuilds it anywhere: ``{"kind": "named"}`` resolves from the bundled
    repository, generator kinds (``grid``, ``random``) embed their
    parameters so generated graphs replay without shipping CPTs.

    ``events`` are plain JSON dicts, ordered by arrival time ``t_ms``:
    ``op`` (query / session_open / session_update / session_query /
    session_close), the op's wire fields (``network``, ``evidence``,
    ``targets``, ``engine``, ``session``, ``replace``), the generating
    ``stream``, and ``check`` (answers deterministic across server
    configurations).
    """

    seed: int
    config: dict
    networks: dict[str, dict]
    events: list[dict]
    schema: str = SCHEMA

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "seed": self.seed,
            "config": self.config,
            "networks": self.networks,
            "events": self.events,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TrafficTrace":
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise QueryError(
                f"not a traffic trace: schema {schema!r} != {SCHEMA!r}")
        return cls(seed=payload["seed"], config=payload["config"],
                   networks=payload["networks"], events=payload["events"],
                   schema=schema)

    def mix_counts(self) -> dict[str, int]:
        """Events per generating stream (recorded traces report one
        ``recorded`` stream)."""
        counts: dict[str, int] = {}
        for event in self.events:
            stream = event.get("stream", "recorded")
            counts[stream] = counts.get(stream, 0) + 1
        return counts

    def build_networks(self) -> dict:
        """Instantiate every network spec (named or generated)."""
        return {name: build_network_spec(name, spec)
                for name, spec in self.networks.items()}


def build_network_spec(name: str, spec: dict):
    """Rebuild one network from its embedded spec."""
    kind = spec.get("kind")
    if kind == "named":
        from repro.bn.repository import resolve_network
        return resolve_network(spec.get("name", name))
    if kind == "grid":
        from repro.bn.generators import grid_network
        return grid_network(int(spec["rows"]), int(spec["cols"]),
                            card=int(spec.get("card", 2)), name=name,
                            rng=int(spec.get("seed", 0)))
    if kind == "random":
        from repro.bn.generators import random_network
        return random_network(int(spec["n"]),
                              state_dist=int(spec.get("card", 2)),
                              avg_parents=float(spec.get("avg_parents", 1.5)),
                              name=name, rng=int(spec.get("seed", 0)))
    raise QueryError(f"unknown network spec kind {kind!r} for {name!r}")


def save_trace(trace: TrafficTrace, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(trace.to_json(), indent=2, sort_keys=True)
                    + "\n")
    return path


def load_trace(path: str | Path) -> TrafficTrace:
    return TrafficTrace.from_json(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------- generator
def _allocate(requests: int, mix: dict[str, float]) -> dict[str, int]:
    """Largest-remainder apportionment: counts sum to ``requests`` exactly
    and each stream's share is within one event of ``requests * frac``."""
    total = sum(mix.values())
    if total <= 0:
        raise QueryError("traffic mix must have positive total weight")
    quotas = {k: requests * v / total for k, v in mix.items()}
    counts = {k: int(q) for k, q in quotas.items()}
    short = requests - sum(counts.values())
    for k in sorted(mix, key=lambda k: (counts[k] - quotas[k], k))[:short]:
        counts[k] += 1
    return counts


def _case_events(cases, network: str, *, stream: str, engine: str | None,
                 check: bool) -> list[dict]:
    events = []
    for case in cases:
        event = {
            "op": "query",
            "network": network,
            "evidence": {k: int(v) for k, v in case.evidence.items()},
            "stream": stream,
            "check": check,
        }
        if case.targets:
            event["targets"] = [str(t) for t in case.targets]
        if engine is not None:
            event["engine"] = engine
        events.append(event)
    return events


def _spread(events: list[dict], rng: np.random.Generator, *,
            gap_ms: float, start_ms: float = 0.0) -> float:
    """Stamp exponential inter-arrival offsets; returns the end time."""
    t = start_ms
    for event in events:
        t += float(rng.exponential(gap_ms))
        event["t_ms"] = round(t, 4)
    return t


def query_trace(network: str, cases) -> TrafficTrace:
    """One-shot ``query`` events over a fixed case list — the workload the
    overhead benchmark replays slice after slice."""
    events = _case_events(cases, network, stream="fixed", engine=None,
                          check=False)
    return TrafficTrace(seed=0, config={"requests": len(events)},
                        networks={network: {"kind": "named", "name": network}},
                        events=events)


def generate_trace(seed: int = 2023, requests: int = 240, *,
                   network: str = "asia",
                   zipf_network: str | None = None,
                   session_network: str | None = None,
                   dense_spec: dict | None = None,
                   mix: dict[str, float] | None = None,
                   zipf_s: float = DEFAULT_ZIPF_S,
                   hot_pool: int = DEFAULT_HOT_POOL,
                   burst_size: int = DEFAULT_BURST_SIZE,
                   gap_ms: float = DEFAULT_GAP_MS,
                   walk_updates: int = DEFAULT_WALK_UPDATES,
                   observed_fraction: float = 0.2,
                   dense_observed_fraction: float | None = None,
                   num_targets: int = 2) -> TrafficTrace:
    """Build a deterministic mixed-workload trace.

    Streams (budget split by ``mix``, largest-remainder apportioned so
    counts sum to ``requests`` exactly):

    * ``zipf`` — explicit-exact queries drawn from a ``hot_pool``-sized
      evidence pool with zipfian rank frequencies: the shape the result
      memo and batcher coalescing exist for.  ``check=True``.
    * ``burst`` — fresh evidence cases arriving in near-simultaneous
      clusters of ``burst_size``: stresses coalescing and queue depth.
      ``check=True``.
    * ``dense`` — auto-routed queries against an adversarial dense
      network (default: a grid whose exact state exceeds a small
      ``max_exact_bytes``): the planner's reason to exist.  Routing
      differs by configuration, so ``check=False``.
    * ``approx`` — explicit sampling-engine queries on the primary
      network (stochastic; ``check=False``).
    * ``session`` — open / ``walk_updates``× update(+read) / query /
      close walks with one-variable evidence edits: the incremental
      delta path's structural workload.  A walk's findings all come from
      one forward sample, so every evidence set along it is possible.
      Reads are deterministic: ``check=True``.

    Every event gets an exponential-gap arrival offset (bursts share
    one); the merged timeline is sorted by ``t_ms`` with a stable
    per-stream tiebreak, preserving session-walk order.

    ``zipf_network`` / ``session_network`` default to ``network`` but may
    name different models, so each stream can run in the regime its
    component serves (e.g. hot repeats on an execution-heavy network
    while bursts stay on a light one).
    """
    if requests < 1:
        raise QueryError(f"requests must be >= 1, got {requests}")
    rng = np.random.default_rng(seed)
    mix = dict(DEFAULT_MIX if mix is None else mix)
    zipf_network = zipf_network or network
    session_network = session_network or network
    counts = _allocate(requests, mix)

    networks: dict[str, dict] = {}
    streams: dict[str, list[dict]] = {}

    from repro.bn.repository import resolve_network
    net = resolve_network(network)
    networks[network] = {"kind": "named", "name": network}

    # zipf: a fixed pool of distinct evidence patterns, ranks drawn with
    # p ∝ 1/rank^s — a handful of patterns carry most of the traffic.
    n_zipf = counts.get("zipf", 0)
    if n_zipf:
        if zipf_network not in networks:
            networks[zipf_network] = {"kind": "named", "name": zipf_network}
        znet = net if zipf_network == network else resolve_network(
            zipf_network)
        pool = generate_test_cases(znet, min(hot_pool, max(1, n_zipf)),
                                   observed_fraction=observed_fraction,
                                   rng=rng, num_targets=num_targets)
        weights = 1.0 / np.arange(1, len(pool) + 1) ** zipf_s
        weights /= weights.sum()
        picks = rng.choice(len(pool), size=n_zipf, p=weights)
        events = _case_events([pool[i] for i in picks], zipf_network,
                              stream="zipf", engine="exact", check=True)
        _spread(events, rng, gap_ms=gap_ms)
        streams["zipf"] = events

    # burst: fresh (cold) evidence in clusters — every case misses the
    # memo, so the batcher's coalescing is the only amortization.
    n_burst = counts.get("burst", 0)
    if n_burst:
        cases = generate_test_cases(net, n_burst,
                                    observed_fraction=observed_fraction,
                                    rng=rng, num_targets=num_targets)
        events = _case_events(cases, network, stream="burst",
                              engine="exact", check=True)
        t = 0.0
        for i in range(0, len(events), burst_size):
            t += float(rng.exponential(gap_ms * burst_size))
            for j, event in enumerate(events[i:i + burst_size]):
                event["t_ms"] = round(t + 0.01 * j, 4)
        streams["burst"] = events

    # dense: an adversarial generated network served via auto routing.
    n_dense = counts.get("dense", 0)
    if n_dense:
        spec = dict(dense_spec or {"kind": "grid", "rows": 10, "cols": 10,
                                   "card": 2, "seed": seed})
        dense_name = spec.pop("name", "dense")
        networks[dense_name] = spec
        dense_net = build_network_spec(dense_name, spec)
        # Dense evidence weight is its own knob: likelihood-weighting
        # cost explodes with observed vars, so heavy evidence here would
        # measure sampler degeneracy, not routing.
        dense_of = (observed_fraction if dense_observed_fraction is None
                    else dense_observed_fraction)
        cases = generate_test_cases(dense_net, n_dense,
                                    observed_fraction=dense_of,
                                    rng=rng, num_targets=num_targets)
        events = _case_events(cases, dense_name, stream="dense",
                              engine=None, check=False)
        _spread(events, rng, gap_ms=gap_ms)
        streams["dense"] = events

    # approx: explicit sampling-engine traffic (stochastic answers).
    n_approx = counts.get("approx", 0)
    if n_approx:
        cases = generate_test_cases(net, n_approx,
                                    observed_fraction=observed_fraction,
                                    rng=rng, num_targets=num_targets)
        events = _case_events(cases, network, stream="approx",
                              engine="approx", check=False)
        _spread(events, rng, gap_ms=gap_ms)
        streams["approx"] = events

    # session: conversational walks — one evidence edit per update, a
    # posterior read with each edit, an explicit query, then close.
    n_session = counts.get("session", 0)
    if n_session:
        if session_network not in networks:
            networks[session_network] = {"kind": "named",
                                         "name": session_network}
        snet = (net if session_network == network
                else resolve_network(session_network))
        names = sorted(v.name for v in snet.variables)
        per_walk = walk_updates + 3  # open + updates + query + close
        walks = max(1, round(n_session / per_walk))
        events = []
        t = 0.0
        w = 0
        while len(events) < n_session:
            sid = f"s{w:04d}"
            w += 1
            sample = forward_sample(snet, rng)
            k = max(1, int(rng.integers(1, max(2, len(names) // 4))))
            picked = list(rng.choice(names, size=min(k, len(names)),
                                     replace=False))
            evidence = {v: sample[v] for v in picked}
            targets = [v for v in names if v not in evidence][:num_targets]
            t += float(rng.exponential(gap_ms * max(1, n_session // walks)))
            walk = [{
                "op": "session_open", "network": session_network,
                "session": sid, "engine": "exact",
                "evidence": dict(evidence),
                "stream": "session", "check": False,
            }]
            for _ in range(walk_updates):
                var = str(rng.choice(names))
                evidence[var] = sample[var]
                targets = [v for v in names if v != var][:num_targets]
                walk.append({
                    "op": "session_update", "session": sid,
                    "evidence": {var: evidence[var]},
                    "targets": list(targets),
                    "stream": "session", "check": True,
                })
            walk.append({"op": "session_query", "session": sid,
                         "targets": list(targets),
                         "stream": "session", "check": True})
            walk.append({"op": "session_close", "session": sid,
                         "stream": "session", "check": False})
            for step, event in enumerate(walk):
                event["t_ms"] = round(t + step * gap_ms, 4)
            room = n_session - len(events)
            if room < len(walk):
                # Budget cuts the final walk short: keep a coherent
                # open→…→close prefix (a lone open is left to the
                # server's TTL sweep — still a valid event).
                walk = walk[:room]
                if len(walk) >= 2:
                    walk[-1] = {"op": "session_close", "session": sid,
                                "t_ms": walk[-1]["t_ms"],
                                "stream": "session", "check": False}
            events.extend(walk)
        streams["session"] = events

    merged: list[dict] = []
    for stream in sorted(streams):
        for seq, event in enumerate(streams[stream]):
            event["_key"] = (event["t_ms"], stream, seq)
            merged.append(event)
    merged.sort(key=lambda e: e["_key"])
    for event in merged:
        del event["_key"]

    config = {
        "requests": requests,
        "network": network,
        "zipf_network": zipf_network,
        "session_network": session_network,
        "mix": {k: float(v) for k, v in mix.items()},
        "counts": {k: len(v) for k, v in streams.items()},
        "zipf_s": zipf_s, "hot_pool": hot_pool,
        "burst_size": burst_size, "gap_ms": gap_ms,
        "walk_updates": walk_updates,
        "observed_fraction": observed_fraction,
        "dense_observed_fraction": dense_observed_fraction,
        "num_targets": num_targets,
    }
    return TrafficTrace(seed=seed, config=config, networks=networks,
                        events=merged)


# -------------------------------------------------------------------- replay
@dataclass
class ReplayResult:
    """One replay of a trace against one live server."""

    requests: int
    elapsed_s: float
    #: Per-event wall latencies (ms), aligned with the trace order the
    #: events were sent in (holes for skipped events).
    latencies_ms: list[float]
    #: event index -> {"posteriors", "log_evidence"} for deterministic
    #: (``check=True``) events that answered ok.
    answers: dict[int, dict] = field(default_factory=dict)
    #: (event index, error code/message) for failed requests.
    errors: list[tuple[int, str]] = field(default_factory=list)

    @property
    def rps(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.quantile(np.asarray(self.latencies_ms), q))

    def summary(self) -> dict:
        return {
            "requests": self.requests,
            "elapsed_s": self.elapsed_s,
            "rps": self.rps,
            "p50_ms": self.latency_quantile(0.50),
            "p99_ms": self.latency_quantile(0.99),
            "checked": len(self.answers),
            "errors": len(self.errors),
        }


_SESSION_OPS = {"session_open", "session_update", "session_query",
                "session_close"}


def _wire_request(event: dict, rid: int, session_ids: dict[str, str]) -> dict:
    """Build the JSON-lines request for one trace event."""
    request = {"id": rid, "op": event["op"]}
    for key in ("network", "evidence", "targets", "engine", "replace",
                "retract", "soft_evidence", "cases"):
        if key in event:
            request[key] = event[key]
    logical = event.get("session")
    if logical is not None and event["op"] != "session_open":
        request["session"] = session_ids.get(logical, logical)
    return request


class TraceReplayer:
    """``concurrency`` persistent closed-loop connections to one server.

    The one client every serving-side benchmark drives its servers with:
    connections open once (``async with``), so a :meth:`replay` slice is
    pure request traffic with no connect inside its timed window.
    """

    def __init__(self, host: str, port: int, concurrency: int = 8) -> None:
        if concurrency < 1:
            raise QueryError(f"concurrency must be >= 1, got {concurrency}")
        self.host, self.port, self.concurrency = host, port, concurrency
        self._conns: list = []

    async def __aenter__(self) -> "TraceReplayer":
        for _ in range(self.concurrency):
            self._conns.append(
                await asyncio.open_connection(self.host, self.port))
        return self

    async def __aexit__(self, *exc) -> None:
        for _, writer in self._conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._conns = []

    async def replay(self, trace: TrafficTrace, *,
                     pace: float = 0.0) -> ReplayResult:
        """Drive the server with ``trace`` once; see :func:`replay_trace_async`."""
        lanes: list[list[tuple[int, dict]]] = [[] for _ in self._conns]
        session_lane: dict[str, int] = {}
        rr = 0
        for idx, event in enumerate(trace.events):
            sid = event.get("session")
            if sid is not None and event["op"] in _SESSION_OPS:
                if sid not in session_lane:
                    session_lane[sid] = rr % len(lanes)
                    rr += 1
                lane = session_lane[sid]
            else:
                lane = rr % len(lanes)
                rr += 1
            lanes[lane].append((idx, event))

        latencies: dict[int, float] = {}
        answers: dict[int, dict] = {}
        errors: list[tuple[int, str]] = []

        async def lane_worker(conn, lane: list[tuple[int, dict]]) -> None:
            reader, writer = conn
            session_ids: dict[str, str] = {}
            for idx, event in lane:
                if pace > 0:
                    due = start + event.get("t_ms", 0.0) / 1000.0 * pace
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                request = _wire_request(event, idx, session_ids)
                t0 = time.perf_counter()
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                line = await reader.readline()
                latencies[idx] = (time.perf_counter() - t0) * 1000.0
                if not line:
                    errors.append((idx, "connection closed"))
                    return
                response = json.loads(line)
                if not response.get("ok"):
                    error = response.get("error") or {}
                    errors.append((idx, str(error.get("code", error))))
                    continue
                result = response.get("result") or {}
                if event["op"] == "session_open":
                    real = result.get("session")
                    if event.get("session") and real:
                        session_ids[event["session"]] = real
                if event.get("check") and "posteriors" in result:
                    answers[idx] = {
                        "posteriors": result["posteriors"],
                        "log_evidence": result.get("log_evidence"),
                    }

        start = time.perf_counter()
        await asyncio.gather(*map(lane_worker, self._conns, lanes))
        elapsed = time.perf_counter() - start
        return ReplayResult(requests=len(latencies), elapsed_s=elapsed,
                            latencies_ms=[latencies[i]
                                          for i in sorted(latencies)],
                            answers=answers, errors=errors)


async def replay_trace_async(trace: TrafficTrace, host: str, port: int, *,
                             concurrency: int = 8,
                             pace: float = 0.0) -> ReplayResult:
    """Drive a live server with ``trace`` over persistent connections.

    Events are dealt to ``concurrency`` connections — round-robin for
    stateless queries, sticky per logical session id so each walk's
    open → update → close order is preserved on one closed-loop
    connection.  ``pace=0`` replays closed-loop (each connection sends
    as fast as answers return — the benchmark posture); ``pace=k``
    honours recorded arrival times scaled by ``k`` (1.0 = real time).

    Logical session ids are remapped to the server-issued ids from each
    walk's ``session_open`` response, so recorded traffic replays
    against a fresh server bit-identically.
    """
    async with TraceReplayer(host, port, concurrency) as replayer:
        return await replayer.replay(trace, pace=pace)


# -------------------------------------------------------------------- record
class TrafficRecorder:
    """A transparent JSON-lines proxy that captures live traffic.

    Sits between clients and a running server (``listen_port`` →
    ``upstream``), forwarding every line verbatim while logging each
    request as a trace event stamped with its arrival offset.  Response
    correlation (by request ``id``, per connection) rewrites
    server-issued session ids to stable logical ids (``r0``, ``r1``, …)
    so the recorded trace replays against any fresh server.

    Only inference ops are recorded (queries and session ops);
    introspection traffic (health/stats/metrics) passes through
    unrecorded.  Recorded events are ``check=True`` only for
    explicit-exact queries and session reads — the deterministic subset.
    """

    RECORDED_OPS = ("query", "query_batch", "mpe", "session_open",
                    "session_update", "session_query", "session_close")

    def __init__(self, upstream_host: str, upstream_port: int, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._events: list[dict] = []
        self._networks: dict[str, dict] = {}
        self._session_names: dict[str, str] = {}
        self._lock = asyncio.Lock()
        self._start: float | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._start = time.perf_counter()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _now_ms(self) -> float:
        return (time.perf_counter() - (self._start or 0.0)) * 1000.0

    @staticmethod
    def _check(event: dict) -> bool:
        if event["op"] in ("session_update", "session_query"):
            return "targets" in event or event["op"] == "session_query"
        return (event["op"] == "query" and event.get("engine") == "exact"
                and "soft_evidence" not in event)

    async def _record_request(self, request: dict) -> dict | None:
        op = request.get("op")
        if op not in self.RECORDED_OPS:
            return None
        event = {"op": op, "t_ms": round(self._now_ms(), 4),
                 "stream": "recorded"}
        for key in ("network", "evidence", "targets", "engine", "replace",
                    "retract", "soft_evidence", "cases"):
            if key in request:
                event[key] = request[key]
        sid = request.get("session")
        if sid is not None:
            logical = self._session_names.get(sid)
            if logical is None:
                # Session opened before recording started: its walk
                # cannot replay against a fresh server — skip it.
                return None
            event["session"] = logical
        network = event.get("network")
        if isinstance(network, str):
            self._networks.setdefault(network,
                                      {"kind": "named", "name": network})
        event["check"] = self._check(event)
        async with self._lock:
            self._events.append(event)
        return event

    async def _handle(self, client_reader, client_writer) -> None:
        try:
            up_reader, up_writer = await asyncio.open_connection(
                *self.upstream)
        except OSError:
            client_writer.close()
            return
        #: request id -> recorded event awaiting its response (for
        #: session_open id learning).
        pending: dict[object, dict] = {}

        async def upstream_dir() -> None:
            while True:
                line = await client_reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                except (ValueError, UnicodeDecodeError):
                    request = None
                if isinstance(request, dict):
                    event = await self._record_request(request)
                    if event is not None and event["op"] == "session_open":
                        pending[request.get("id")] = event
                up_writer.write(line)
                await up_writer.drain()
            up_writer.close()

        async def downstream_dir() -> None:
            while True:
                line = await up_reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except (ValueError, UnicodeDecodeError):
                    response = None
                if isinstance(response, dict):
                    event = pending.pop(response.get("id"), None)
                    if event is not None and response.get("ok"):
                        real = (response.get("result") or {}).get("session")
                        if real:
                            logical = f"r{len(self._session_names):04d}"
                            self._session_names[real] = logical
                            event["session"] = logical
                client_writer.write(line)
                await client_writer.drain()
            client_writer.close()

        await asyncio.gather(upstream_dir(), downstream_dir(),
                             return_exceptions=True)

    def trace(self, seed: int = 0) -> TrafficTrace:
        """Snapshot the recording as a replayable trace."""
        valid = set(self._session_names.values())
        events = []
        for event in sorted(self._events, key=lambda e: e["t_ms"]):
            if event["op"] in _SESSION_OPS:
                # Drop walks whose open never correlated (failed or
                # raced shutdown): they cannot replay coherently.
                if event.get("session") not in valid:
                    continue
            events.append(dict(event))
        return TrafficTrace(
            seed=seed,
            config={"requests": len(events), "recorded": True,
                    "mix": {}, "counts": {"recorded": len(events)}},
            networks=dict(self._networks),
            events=events)


# -------------------------------------------------------------------- render
def render_trace(trace: TrafficTrace) -> str:
    """Human summary for ``fastbni workload``."""
    lines = [
        f"traffic trace  schema={trace.schema}  seed={trace.seed}",
        f"  events: {len(trace.events)}"
        f"  networks: {', '.join(sorted(trace.networks))}",
        "  mix:",
    ]
    counts = trace.mix_counts()
    total = max(1, len(trace.events))
    for stream in sorted(counts):
        n = counts[stream]
        lines.append(f"    {stream:<10} {n:>6}  ({100.0 * n / total:5.1f}%)")
    checked = sum(1 for e in trace.events if e.get("check"))
    span = trace.events[-1]["t_ms"] if trace.events else 0.0
    lines.append(f"  deterministic (check=true): {checked}")
    lines.append(f"  arrival span: {span / 1000.0:.2f}s")
    return "\n".join(lines)


# ----------------------------------------------------------------------- cli
def _parse_mix(raw: str) -> dict | None:
    """Parse ``zipf=0.4,burst=0.2,...`` into a mix dict (None if empty)."""
    mix: dict[str, float] = {}
    for part in filter(None, (p.strip() for p in raw.split(","))):
        key, eq, value = part.partition("=")
        if not eq:
            raise SystemExit(f"error: bad mix entry {part!r}; "
                             "expected stream=fraction")
        try:
            mix[key.strip()] = float(value)
        except ValueError:
            raise SystemExit(f"error: bad mix fraction {value!r}") from None
    return mix or None


def _parse_dense(raw: str, seed: int) -> dict | None:
    """Parse ``ROWSxCOLS[xCARD]`` into a grid dense_spec (None if empty)."""
    if not raw:
        return None
    parts = raw.lower().split("x")
    if len(parts) not in (2, 3) or not all(p.strip().isdigit()
                                           for p in parts):
        raise SystemExit(f"error: bad dense grid {raw!r}; "
                         "expected ROWSxCOLS or ROWSxCOLSxCARD")
    return {"kind": "grid", "rows": int(parts[0]), "cols": int(parts[1]),
            "card": int(parts[2]) if len(parts) == 3 else 2, "seed": seed}


#: Generator flags shared by ``workload`` and ``ablate``.
TRACE_FLAGS = (
    Flag("--seed", 2023, "RNG seed of the generated trace"),
    Flag("--requests", 240, "event budget for a generated trace"),
    Flag("--network", "asia",
         "primary network for zipf/burst/approx streams"),
    Flag("--zipf-network", "",
         "network for the hot zipf stream (default: --network)"),
    Flag("--session-network", "",
         "network for session walks (default: --network)"),
    Flag("--dense-grid", "",
         "dense-stream grid as ROWSxCOLS[xCARD], e.g. 12x12 "
         "(default: 10x10x2)"),
    Flag("--dense-observed", -1.0,
         "observed-variable fraction for dense cases (default: the "
         "trace-wide fraction)"),
    Flag("--mix", "",
         "stream mix, e.g. zipf=0.4,burst=0.15,dense=0.15,approx=0.1,"
         "session=0.2 (default: built-in mix)"),
)


def generator_kwargs(*, seed: int, requests: int, network: str,
                     zipf_network: str, session_network: str,
                     dense_grid: str, dense_observed: float,
                     mix: str) -> dict:
    """:func:`generate_trace` keywords from the raw :data:`TRACE_FLAGS`."""
    return {
        "seed": seed, "requests": requests, "network": network,
        "zipf_network": zipf_network or None,
        "session_network": session_network or None,
        "mix": _parse_mix(mix), "dense_spec": _parse_dense(dense_grid, seed),
        "dense_observed_fraction": (dense_observed if dense_observed >= 0
                                    else None),
    }


def _workload_main(args) -> None:
    if args.record:
        async def record() -> None:
            recorder = TrafficRecorder(args.host, args.port,
                                       port=args.listen_port)
            await recorder.start()
            print(f"recording {args.host}:{args.port} via proxy port "
                  f"{recorder.port} for {args.duration:.0f}s", flush=True)
            try:
                await asyncio.sleep(args.duration)
            finally:
                await recorder.stop()
            trace = recorder.trace(seed=args.seed)
            print(render_trace(trace))
            if args.out:
                save_trace(trace, args.out)
                print(f"wrote {args.out}")

        try:
            asyncio.run(record())
        except KeyboardInterrupt:
            pass
        return

    if args.replay:
        trace = load_trace(args.replay)
        print(render_trace(trace))
        result = asyncio.run(replay_trace_async(
            trace, args.host, args.port, concurrency=args.concurrency,
            pace=args.pace))
        summary = result.summary()
        print(f"replayed {summary['requests']} requests in "
              f"{summary['elapsed_s']:.2f}s: {summary['rps']:.1f} req/s, "
              f"p50 {summary['p50_ms']:.2f} ms, "
              f"p99 {summary['p99_ms']:.2f} ms, "
              f"errors {summary['errors']}")
        if summary["errors"]:
            for idx, error in result.errors[:10]:
                print(f"  event {idx}: {error}")
            raise SystemExit(1)
        return

    trace = generate_trace(**generator_kwargs(
        **{f.dest: f.value(args) for f in TRACE_FLAGS}))
    print(render_trace(trace))
    if args.out:
        save_trace(trace, args.out)
        print(f"wrote {args.out}")


WORKLOAD = Command(
    name="workload",
    help="traffic traces: generate a seeded mixed workload, record live "
         "traffic through a proxy, or replay a trace against a server",
    cli_flags=(
        *TRACE_FLAGS,
        Flag("--out", "traffic.json", "trace JSON path ('' to skip writing)"),
        Flag("--replay", "",
             "replay this trace file against --host/--port instead of "
             "generating"),
        Flag("--record", False,
             "record live traffic: proxy --listen-port to --host/--port "
             "for --duration seconds"),
        Flag("--host", "127.0.0.1", "server host"),
        Flag("--port", 7421, "server port (replay target / record upstream)"),
        Flag("--listen-port", 0,
             "recording proxy port (0 picks an ephemeral port)"),
        Flag("--duration", 30.0, "recording duration in seconds"),
        Flag("--concurrency", 8,
             "replay: concurrent closed-loop connections"),
        Flag("--pace", 0.0,
             "replay: honour recorded arrival times scaled by this factor "
             "(0 = closed loop, 1 = real time)"),
    ),
    main=_workload_main,
)
