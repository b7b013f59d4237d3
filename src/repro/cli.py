"""Command-line interface: ``fastbni <subcommand>``.

* ``info``        — network/junction-tree statistics;
* ``query``       — run one inference on a bundled or analog network, or a
  whole case batch in one vectorised calibration pass (``--batch``);
  ``--engine exact|approx|auto`` picks the junction tree, the adaptive
  sampler, or lets the cost planner decide;
* ``serve``       — long-lived inference server (compiled-model registry +
  dynamic micro-batching + exact/approx query planner + streaming
  evidence sessions, JSON-lines over TCP; ``--trace-sample-rate`` turns
  on sampled request tracing);
* ``cluster``     — the same protocol served by a router over N worker
  processes;
* ``client``      — query a running server (one-shot, scriptable; the
  ``session_*`` ops drive streaming sessions, ``session_demo`` runs a
  scripted open→update→retract→close walk, ``metrics`` prints the
  Prometheus exposition and ``slow_queries`` the slow-query log);
* ``trace``       — fetch a running server's sampled traces and write
  them as Chrome trace-event JSON (open in chrome://tracing/Perfetto);
* ``table1`` (the paper's Table 1, all engines × all networks), the
  other ``BENCH_*.json`` artifact subcommands and ``workload`` — declared
  by the specs in :mod:`repro.bench.registry`, listed below.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.config import MODES
from repro.exec.kernels import KERNELS


def _load_any(name: str):
    from repro.bn.repository import resolve_network
    from repro.errors import NetworkError

    try:
        return resolve_network(name)
    except NetworkError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_info(args: argparse.Namespace) -> None:
    from repro.jt.layers import compute_layers
    from repro.jt.root import select_root
    from repro.jt.structure import compile_junction_tree

    from repro.exec.plan import compile_plan

    net = _load_any(args.network)
    print(net.summary())
    tree = compile_junction_tree(net)
    select_root(tree, "center")
    schedule = compute_layers(tree)
    stats = {"heuristic": tree.heuristic, **tree.stats()}
    stats["num_layers"] = schedule.num_layers
    stats.update(compile_plan(tree, schedule).stats())
    for k, v in stats.items():
        print(f"  {k}: {v}")


def _parse_evidence_arg(text: str):
    """``--evidence`` JSON: a dict (one case) or a list of dicts (a batch)."""
    if not text:
        return {}
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: --evidence is not valid JSON: {exc}")
    if isinstance(value, dict):
        return value
    if isinstance(value, list) and all(isinstance(e, dict) for e in value):
        return value
    raise SystemExit(
        "error: --evidence must be a JSON object (one case) or a JSON list "
        f"of objects (a batch), got {type(value).__name__}"
    )


def _make_query_engine(args: argparse.Namespace, net):
    """Build the engine ``query --engine`` selects (planner decides auto)."""
    from repro.approx import ApproxBNI, QueryPlanner
    from repro.core import FastBNI
    from repro.jt.structure import compile_cliques, tree_from_cliques

    choice = args.engine
    decision = tree = None
    if choice == "auto":
        # Triangulate once: the planner prices the cliques the exact
        # engine then builds its tree from.
        triangulation = compile_cliques(net)
        decision = QueryPlanner().plan(net, cliques=triangulation.cliques)
        choice = decision.engine
        if choice == "exact":
            tree = tree_from_cliques(net, triangulation.cliques,
                                     triangulation.heuristic)
    if choice == "approx":
        from repro.approx.engine import DEFAULT_MAX_SAMPLES

        if decision is not None:
            print(f"# planner: {decision.reason}")
        return ApproxBNI(net, num_samples=args.samples,
                         max_samples=max(args.samples, DEFAULT_MAX_SAMPLES),
                         tolerance=args.tolerance, seed=args.seed)
    return FastBNI(net, tree=tree, mode=args.mode, num_workers=args.workers,
                   kernels=args.kernels)


def _cmd_query(args: argparse.Namespace) -> None:
    from repro.errors import ReproError
    from repro.jt.evidence_soft import split_evidence

    net = _load_any(args.network)
    evidence = _parse_evidence_arg(args.evidence)
    try:
        if args.batch or isinstance(evidence, list):
            _run_batch_query(args, net, evidence)
            return
        # Scalar values are hard observations, list values soft likelihood
        # vectors: --evidence '{"smoke": "yes", "xray": [0.7, 0.3]}'.
        hard, soft = split_evidence(evidence)
        with _make_query_engine(args, net) as engine:
            result = engine.infer(hard, soft_evidence=soft or None)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    stderr = getattr(result, "stderr", None)
    targets = args.targets.split(",") if args.targets else list(net.variable_names)[:10]
    for name in targets:
        var = net.variable(name)
        dist = ", ".join(f"{s}={p:.4f}" for s, p in zip(var.states, result.posteriors[name]))
        if stderr is not None and name in stderr:
            dist += f"  (±{float(stderr[name].max()):.4f})"
        print(f"P({name} | e) = [{dist}]")
    print(f"log P(e) = {result.log_evidence:.6f}")
    if stderr is not None:
        print(f"approx: ess = {result.ess:.0f}, samples = {result.num_samples}, "
              f"method = {result.method}")


def _run_batch_query(args: argparse.Namespace, net, evidence) -> None:
    """``query --batch``: vectorised multi-case inference in one pass.

    The case batch is either the JSON *list* of evidence dicts passed via
    ``--evidence``, or ``--batch N`` randomly generated cases (the paper's
    workload recipe: 20% observed variables, seeded by ``--seed``).
    """
    import time

    from repro.bn.sampling import TestCase, generate_test_cases
    from repro.jt.evidence_soft import split_evidence

    if isinstance(evidence, list):
        split = [split_evidence(dict(e)) for e in evidence]
        cases = [TestCase(evidence=hard, soft_evidence=soft or None)
                 for hard, soft in split]
    elif evidence:
        raise SystemExit(
            "query --batch generates random cases and would ignore the given "
            "--evidence dict; pass --evidence as a JSON list of per-case "
            "dicts to batch specific evidence"
        )
    else:
        cases = [c.evidence for c in generate_test_cases(
            net, args.batch, observed_fraction=0.2, rng=args.seed)]
    targets = tuple(args.targets.split(",")) if args.targets else ()
    chosen = _make_query_engine(args, net)
    approx = not chosen.capabilities.exact
    with chosen as engine:
        start = time.perf_counter()
        # The exact engine runs soft-evidence cases one by one and the
        # rest in one batched calibration; the approx engine shares one
        # particle population across all cases either way.
        results = engine.infer_batch(cases, targets=targets)
        elapsed = time.perf_counter() - start
        blocks = int(engine.metrics.get("batch_blocks", 0))
    n = len(results)
    if approx:
        detail = " (one shared particle population)"
    else:
        detail = f", {blocks} case blocks" if blocks else ""
        soft = sum(1 for c in cases if getattr(c, "soft_evidence", None))
        if soft:
            detail += f", {soft} soft: per-case fallback"
    print(f"batched {n} cases in {elapsed * 1e3:.1f} ms "
          f"({elapsed / max(n, 1) * 1e3:.2f} ms/case{detail})")
    shown = targets[:1] or list(net.variable_names)[:1]
    for i in range(min(n, 10)):
        case = results[i]
        name = shown[0]
        var = net.variable(name)
        dist = ", ".join(f"{s}={p:.4f}"
                         for s, p in zip(var.states, case.posteriors[name]))
        extra = ""
        if approx:
            extra = f"   ess = {case.ess:.0f}"
        print(f"  case {i}: log P(e) = {case.log_evidence:.6f}   "
              f"P({name} | e) = [{dist}]{extra}")
    if n > 10:
        print(f"  ... {n - 10} more cases")


def _cmd_serve(args: argparse.Namespace) -> None:
    import asyncio

    from repro.approx.engine import DEFAULT_MAX_SAMPLES
    from repro.service.server import run_server

    preload = tuple(n.strip() for n in args.preload.split(",") if n.strip())

    def on_ready(server) -> None:
        models = ", ".join(preload) if preload else "none"
        print(f"fastbni inference server listening on "
              f"{server.host}:{server.port} "
              f"(max_batch={args.max_batch}, "
              f"preloaded: {models})", flush=True)

    try:
        # On SIGINT asyncio.Runner cancels the main task; run_server absorbs
        # the cancellation and drains/stops cleanly, so asyncio.run usually
        # returns normally rather than raising KeyboardInterrupt.
        asyncio.run(run_server(
            args.host, args.port,
            preload=preload,
            on_ready=on_ready,
            max_batch=args.max_batch,
            cache_dir=args.cache_dir or None,
            max_bytes=int(args.max_mb * 1024 * 1024),
            policy=args.policy,
            max_exact_bytes=int(args.max_exact_mb * 1024 * 1024),
            approx_options={"num_samples": args.approx_samples,
                            "max_samples": max(args.approx_samples,
                                               DEFAULT_MAX_SAMPLES),
                            "tolerance": args.approx_tolerance},
            cache=args.cache == "on",
            cache_options={"max_bytes": int(args.cache_mb * 1024 * 1024)},
            max_sessions=args.max_sessions,
            session_ttl_s=args.session_ttl,
            trace_sample_rate=args.trace_sample_rate,
            trace_buffer=args.trace_buffer,
            trace_slow_ms=args.trace_slow_ms,
            trace_slow_log=args.trace_slow_log,
            mode=args.mode, num_workers=args.workers, kernels=args.kernels,
        ))
    except KeyboardInterrupt:
        pass
    print("server stopped")


def _cmd_cluster(args: argparse.Namespace) -> None:
    import asyncio
    import os

    from repro.cluster.router import reload_argv, run_cluster

    preload = tuple(n.strip() for n in args.preload.split(",") if n.strip())
    # Worker knobs must cross a process boundary as JSON (the supervisor
    # passes them via --options-json), so only plain values go here.
    worker_options = {
        "max_batch": args.max_batch,
        "policy": args.policy,
        "cache": args.cache == "on",
        "max_bytes": int(args.max_mb * 1024 * 1024),
        "kernels": args.kernels,
    }

    def on_ready(router) -> None:
        models = ", ".join(preload) if preload else "none"
        print(f"fastbni cluster router listening on "
              f"{router.host}:{router.port} "
              f"({args.workers} workers, max_inflight={args.max_inflight}, "
              f"preloaded: {models})", flush=True)

    try:
        reload_requested = asyncio.run(run_cluster(
            args.host, args.port,
            workers=args.workers,
            preload=preload,
            worker_options=worker_options,
            on_ready=on_ready,
            max_inflight=args.max_inflight,
            replicate_hot_qps=args.replicate_hot,
            drain_timeout_s=args.drain_timeout,
        ))
    except KeyboardInterrupt:
        reload_requested = False
    if reload_requested:
        argv = reload_argv()
        print(f"cluster drained; exec-reloading: {' '.join(argv[1:])}",
              flush=True)
        os.execv(argv[0], argv)
    print("cluster stopped")


def _run_session_demo(client, args: argparse.Namespace) -> None:
    """Scripted streaming walk: open → add findings → retract → close."""
    net = _load_any(args.network)
    names = list(net.variable_names)
    target = args.targets.split(",")[0] if args.targets else names[-1]
    steps = [n for n in names if n != target][:3]
    with client.session(args.network, engine=args.engine or None) as sess:
        print(f"opened session {sess.id} on {args.network}")
        for name in steps:
            state = net.variable(name).states[0]
            r = sess.update({name: state}, targets=[target])
            probs = ", ".join(f"{p:.4f}" for p in r["posteriors"][target])
            print(f"  +{name}={state}: delta size {r['delta']['size']}, "
                  f"P({target} | e) = [{probs}]")
        r = sess.update(retract=[steps[0]], targets=[target])
        probs = ", ".join(f"{p:.4f}" for p in r["posteriors"][target])
        print(f"  -{steps[0]}: delta size {r['delta']['size']}, "
              f"P({target} | e) = [{probs}]")
    print("session closed")


def _cmd_trace(args: argparse.Namespace) -> None:
    """Fetch the server's sampled traces as Chrome trace-event JSON."""
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    try:
        with ServiceClient(args.host, args.port,
                           connect_retry_s=args.connect_timeout) as client:
            dump = client.trace_dump()
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}")
    count = dump.pop("traceCount", 0)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    print(f"wrote {len(dump.get('traceEvents', []))} events from {count} "
          f"traces to {args.out} (open in chrome://tracing or Perfetto)")
    if count == 0:
        print("note: no traces buffered — serve with --trace-sample-rate > 0")


def _cmd_client(args: argparse.Namespace) -> None:
    from repro.errors import ReproError, ServiceError
    from repro.service.client import ServiceClient
    from repro.service.ops import OPS

    evidence = _parse_evidence_arg(args.evidence)
    # Every request field the CLI can fill; the op's row picks its own.
    values = {
        "network": args.network,
        "session": args.session or None,
        "evidence": evidence or None,
        "cases": evidence if isinstance(evidence, list) else None,
        "targets": [t for t in args.targets.split(",") if t] or None,
        "engine": args.engine or None,
        "retract": [t for t in args.retract.split(",") if t] or None,
        "replace": args.replace or None,
    }
    row = OPS.get(args.op)  # None for session_demo, the CLI's own walk
    fields = {f.name: values.get(f.name) for f in row.fields} if row else {}
    try:
        if row:
            row.parse(fields)  # reject what the server would, unsent
        with ServiceClient(args.host, args.port,
                           connect_retry_s=args.connect_timeout,
                           retries=args.retries,
                           retry_backoff_s=args.retry_backoff) as client:
            if args.op == "session_demo":
                _run_session_demo(client, args)
                return
            if args.op == "metrics" and not args.json:
                # The exposition text is the deliverable: print it raw
                # (scrapeable), not wrapped in a JSON envelope.
                print(client.metrics(), end="")
                return
            result = client.call(args.op, **fields)
    except ServiceError as exc:
        if args.json:
            error = {"type": exc.error_type or "ServiceError",
                     "message": str(exc)}
            code = getattr(exc, "code", None)
            if code is not None:
                error["code"] = code
            print(json.dumps({"ok": False, "error": error}))
            raise SystemExit(1)
        raise SystemExit(f"error: {exc}")
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json.dumps({"ok": True, "result": result}))
    elif "posteriors" in result and "engine" in result:
        # A query answer (it names its engine class): one line per target.
        stderrs = result.get("stderr") or {}
        for name, probs in result["posteriors"].items():
            dist = ", ".join(f"{p:.4f}" for p in probs)
            suffix = ""
            if name in stderrs:
                suffix = f"  (±{max(stderrs[name]):.4f})"
            print(f"P({name} | e) = [{dist}]{suffix}")
        log_ev = result.get("log_evidence")
        log_ev_text = f"{log_ev:.6f}" if log_ev is not None else "n/a"
        print(f"log P(e) = {log_ev_text}   "
              f"(served by: {result['served_by']}, "
              f"engine: {result['engine']})")
        if result["engine"] == "approx":
            print(f"approx: ess = {result['ess']:.0f}, "
                  f"samples = {result['num_samples']}")
    else:
        print(json.dumps(result, indent=2, default=str))


class _OpChoices:
    """``client --op`` choices: the op table plus ``session_demo``, read on
    first use (``fastbni serve`` must not import the service to parse)."""

    def __iter__(self):
        from repro.service.ops import OPS
        return iter((*OPS, "session_demo"))

    def __contains__(self, op) -> bool:
        return op in tuple(self)


class _LazyCommands(dict):
    """argparse's ``name -> subparser`` map, completed on the first miss.

    The bench subcommands are declared by the specs in
    :mod:`repro.bench.registry`.  Importing those would cost ``fastbni
    serve`` start-up time it has no use for, so they are registered the
    first time a name is not found here or the names are listed
    (``--help``, an unknown command).
    """

    def __init__(self, load) -> None:
        super().__init__()
        self._load = load

    def _complete(self) -> None:
        load, self._load = self._load, None
        if load is not None:
            load()

    def __contains__(self, name) -> bool:
        if not super().__contains__(name):
            self._complete()
        return super().__contains__(name)

    def __iter__(self):
        self._complete()
        return super().__iter__()


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``fastbni`` argument parser."""
    p = argparse.ArgumentParser(prog="fastbni", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="network + junction tree statistics")
    info.add_argument("network")
    info.set_defaults(func=_cmd_info)

    q = sub.add_parser("query", help="run one inference (or a vectorised batch)")
    q.add_argument("network")
    q.add_argument("--evidence", default="",
                   help='JSON, e.g. \'{"smoke": "yes"}\'; a JSON *list* of '
                        "evidence dicts runs as one vectorised batch")
    q.add_argument("--batch", type=int, default=0,
                   help="generate N random cases (20%% observed) and run them "
                        "in one batched calibration pass")
    q.add_argument("--seed", type=int, default=2023,
                   help="RNG seed for --batch case generation and sampling")
    q.add_argument("--targets", default="", help="comma-separated query variables")
    q.add_argument("--engine", default="exact",
                   choices=("exact", "approx", "auto"),
                   help="engine class: exact junction tree, adaptive "
                        "sampling, or let the cost planner decide")
    q.add_argument("--samples", type=int, default=1024,
                   help="starting particle count for --engine approx")
    q.add_argument("--tolerance", type=float, default=0.01,
                   help="target worst-case posterior standard error")
    q.add_argument("--mode", default="seq", choices=MODES,
                   help="engine mode (default: seq, one native call per "
                        "case; the parallel modes run --workers threads)")
    q.add_argument("--workers", type=int, default=4)
    q.add_argument("--kernels", default="native", choices=KERNELS,
                   help="whole-message kernel backend: native GIL-free C "
                        "calls (default; falls back to numpy when no C "
                        "compiler is available) or the numpy ndview "
                        "reference")
    q.set_defaults(func=_cmd_query)

    sv = sub.add_parser("serve", help="run the resident inference server "
                                      "(registry + dynamic micro-batching)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7421,
                    help="TCP port (0 picks an ephemeral port)")
    sv.add_argument("--max-batch", type=int, default=64,
                    help="largest flush: a queue this long flushes at once "
                         "(1 = no coalescing)")
    sv.add_argument("--cache-dir", default="",
                    help="directory for warm starts: serialized junction "
                         "trees and one read-only table file per model")
    sv.add_argument("--max-mb", type=float, default=256.0,
                    help="registry resident-set byte budget (LRU eviction)")
    sv.add_argument("--preload", default="",
                    help="comma-separated models to compile before serving")
    sv.add_argument("--policy", default="auto",
                    choices=("exact", "approx", "auto"),
                    help="default engine routing: exact junction trees, "
                         "sampling, or cost-planner auto (default)")
    sv.add_argument("--max-exact-mb", type=float, default=64.0,
                    help="auto policy: estimated JT table budget beyond "
                         "which a model is served by sampling")
    sv.add_argument("--approx-samples", type=int, default=1024,
                    help="starting particle count for approx-served models")
    sv.add_argument("--approx-tolerance", type=float, default=0.01,
                    help="target posterior standard error for approx answers")
    sv.add_argument("--cache", default="on", choices=("on", "off"),
                    help="result memo: a query seen twice before is "
                         "answered without touching the tree (default: on)")
    sv.add_argument("--cache-mb", type=float, default=32.0,
                    help="per-model result-memo byte budget, charged "
                         "against --max-mb")
    sv.add_argument("--max-sessions", type=int, default=256,
                    help="live streaming sessions; past this the "
                         "least-recently-used is evicted")
    sv.add_argument("--session-ttl", type=float, default=600.0,
                    help="idle seconds before a session is evicted "
                         "(0 disables the TTL sweep)")
    sv.add_argument("--trace-sample-rate", type=float, default=0.0,
                    help="fraction of requests carrying a full span trace "
                         "(deterministic every-Nth sampling; 0 = off, "
                         "1 = every request)")
    sv.add_argument("--trace-buffer", type=int, default=256,
                    help="sampled traces kept in the ring buffer "
                         "(trace_dump / fastbni trace read this window)")
    sv.add_argument("--trace-slow-ms", type=float, default=100.0,
                    help="latency threshold for the slow-query log "
                         "(tracks every request, sampled or not)")
    sv.add_argument("--trace-slow-log", type=int, default=32,
                    help="slow-query log size (top-K slowest over the "
                         "threshold; 0 disables the log)")
    sv.add_argument("--mode", default="seq", choices=MODES,
                    help="engine mode for served models (default: seq — "
                         "throughput comes from batching, not worker pools)")
    sv.add_argument("--workers", type=int, default=1)
    sv.add_argument("--kernels", default="native", choices=KERNELS,
                    help="whole-message kernel backend for served models "
                         "(info/stats report the active one — native "
                         "degrades to numpy without a C compiler)")
    sv.set_defaults(func=_cmd_serve)

    cu = sub.add_parser("cluster",
                        help="run a sharded cluster: front router + N "
                             "worker processes (same wire protocol as "
                             "serve)")
    cu.add_argument("--host", default="127.0.0.1")
    cu.add_argument("--port", type=int, default=7421,
                    help="router TCP port (0 picks an ephemeral port; "
                         "workers always bind ephemeral ports)")
    cu.add_argument("--workers", type=int, default=4,
                    help="worker processes (one serving core each)")
    cu.add_argument("--preload", default="",
                    help="comma-separated models every worker compiles "
                         "before the cluster reports ready")
    cu.add_argument("--replicate-hot", type=float, default=50.0,
                    help="replicate a model to one more worker per this "
                         "many live requests/s (0 disables hot "
                         "replication)")
    cu.add_argument("--max-inflight", type=int, default=64,
                    help="per-worker in-flight window; past it requests "
                         "are rejected with error.code=overloaded")
    cu.add_argument("--drain-timeout", type=float, default=30.0,
                    help="cluster_drain: seconds to wait for in-flight "
                         "requests before shutting down anyway")
    cu.add_argument("--max-batch", type=int, default=64,
                    help="per-worker micro-batcher flush size")
    cu.add_argument("--policy", default="auto",
                    choices=("exact", "approx", "auto"))
    cu.add_argument("--cache", default="on", choices=("on", "off"),
                    help="per-worker result memo")
    cu.add_argument("--kernels", default="native", choices=KERNELS,
                    help="per-worker kernel backend (each worker process "
                         "compiles/loads the native library from the "
                         "shared cache; degrades to numpy without a C "
                         "compiler)")
    cu.add_argument("--max-mb", type=float, default=256.0,
                    help="per-worker registry byte budget")
    cu.set_defaults(func=_cmd_cluster)

    cl = sub.add_parser("client", help="query a running inference server")
    cl.add_argument("network", nargs="?",
                    help="model name or .bif path (not needed for "
                         "health/stats)")
    cl.add_argument("--op", default="query", choices=_OpChoices(),
                    metavar="OP",
                    help="wire op, or session_demo: %(choices)s")
    cl.add_argument("--session", default="",
                    help="session id (from session_open) for the "
                         "session_update/session_query/session_close ops")
    cl.add_argument("--retract", default="",
                    help="session_update: comma-separated variables to "
                         "withdraw from the session's evidence")
    cl.add_argument("--replace", action="store_true",
                    help="session_update: replace the whole evidence set "
                         "instead of merging")
    cl.add_argument("--evidence", default="",
                    help='JSON; scalar values are hard evidence, lists are '
                         'soft likelihoods: \'{"smoke": "yes", '
                         '"xray": [0.7, 0.3]}\'')
    cl.add_argument("--targets", default="",
                    help="comma-separated query variables")
    cl.add_argument("--engine", default="",
                    choices=("", "exact", "approx", "auto"),
                    help="server-side engine routing for this request")
    cl.add_argument("--host", default="127.0.0.1")
    cl.add_argument("--port", type=int, default=7421)
    cl.add_argument("--connect-timeout", type=float, default=5.0,
                    help="keep retrying the connect for this many seconds")
    cl.add_argument("--retries", type=int, default=0,
                    help="transparent retry budget: reconnect+resend on "
                         "dropped connections (idempotent ops) and on "
                         "overloaded/draining rejections (all ops)")
    cl.add_argument("--retry-backoff", type=float, default=0.05,
                    help="base seconds between retries (doubles per "
                         "attempt, capped, jittered)")
    cl.add_argument("--json", action="store_true",
                    help="print the raw JSON response envelope")
    cl.set_defaults(func=_cmd_client)

    tr = sub.add_parser("trace",
                        help="dump a running server's sampled traces as "
                             "Chrome trace-event JSON")
    tr.add_argument("out", help="output file (chrome://tracing / Perfetto)")
    tr.add_argument("--host", default="127.0.0.1")
    tr.add_argument("--port", type=int, default=7421)
    tr.add_argument("--connect-timeout", type=float, default=5.0,
                    help="keep retrying the connect for this many seconds")
    tr.set_defaults(func=_cmd_trace)

    def add_bench_commands() -> None:
        from repro.bench.registry import COMMANDS

        for command in COMMANDS:
            parser = sub.add_parser(command.name, help=command.help)
            for flag in command.cli_flags:
                flag.add_to(parser)
            parser.set_defaults(func=command.main)

    lazy = _LazyCommands(add_bench_commands)
    lazy.update(sub.choices)
    sub.choices = sub._name_parser_map = lazy
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
