"""The repo's benchmark: ``python bench/run.py [--workload W] [--seed S]``.

Runs each workload as a closed loop with one op in flight against a freshly
spawned process under test, in replica passes of a fixed op count; prints
every metric ``BENCHMARK.json`` names with its unit, checks answers against
the numpy oracle, writes one result JSON and ends with one JSON line.
``--trace 0`` measures the end-to-end metrics with nothing installed,
``--trace 1`` the per-layer metrics from passes with span wrappers
installed; without ``--trace`` both run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time

import config

if not (config.SRC / "repro").is_dir():
    sys.exit(f"bench/run.py measures the repo's own source tree; "
             f"{config.SRC}/repro is missing")
(config.OUT / "tmp").mkdir(parents=True, exist_ok=True)
os.environ.update(config.child_env())
sys.path.insert(0, str(config.SRC))

import numpy as np  # noqa: E402

import inputs as gen  # noqa: E402
import machine  # noqa: E402
import spans  # noqa: E402
from oracle import Oracle  # noqa: E402
from targets import LibTarget, ServerTarget, peak_rss_mb  # noqa: E402

with open(config.ROOT / "BENCHMARK.json") as _f:
    CONTRACT = json.load(_f)

#: Per-layer metric -> span whose median self time per op it reports.
SELF_TIME = {
    "core.infer_self_ms": "core.infer",
    "exec.plan.fresh_state_ms": "exec.plan.fresh_state",
    "exec.plan.absorb_ms": "exec.plan.absorb",
    "exec.plan.read_ms": "exec.plan.read",
    "exec.kernels.schedule_ms": "exec.kernels.schedule",
    "core.batch.self_ms": "core.batch.infer_cases",
    "exec.plan.fresh_batch_state_ms": "exec.plan.fresh_batch_state",
    "exec.plan.absorb_batch_ms": "exec.plan.absorb_batch",
    "exec.kernels.batch_schedule_ms": "exec.kernels.message_batch",
    "jt.query.read_batch_ms": "jt.query.read_batch",
    "service.batcher.submit_ms": "service.batcher.submit",
    "service.registry.lookup_ms": "service.registry.lookup",
    "service.cache.serve_cases_ms": "service.cache.serve_cases",
    "service.cache.record_cold_ms": "service.cache.record_cold",
    "service.sessions.open_ms": "service.sessions.open",
    "service.sessions.update_ms": "service.sessions.update",
    "service.sessions.close_ms": "service.sessions.close",
    "jt.incremental.clone_ms": "jt.incremental.clone",
    "jt.incremental.update_ms": "jt.incremental.update",
    "jt.incremental.posteriors_ms": "jt.incremental.posteriors",
}


def start_target(workload: config.Workload, trace_path=None):
    cls = LibTarget if workload.kind == "lib" else ServerTarget
    target = cls(workload, trace_path)
    if target.info["kernels"] != config.KERNELS:
        target.close()
        raise SystemExit(f"refusing to run: {workload.name} is served by "
                         f"{target.info['kernels']!r} kernels")
    return target


def sample_ops(rng, ops: list, count: int) -> list:
    """``count`` random ``[op, case]`` pairs among the ops the oracle can
    re-answer (those that carry their evidence)."""
    checkable = [i for i, op in enumerate(ops)
                 if "evidence" in op or "cases" in op]
    picks = []
    for i in rng.choice(checkable, size=count):
        cases = len(ops[i]["cases"]) if "cases" in ops[i] else 1
        picks.append([int(i), int(rng.integers(cases))])
    return picks


def run_passes(target, workload, data: gen.Inputs, passes: int,
               budget_s: float, rng) -> dict:
    """Warm up, then run up to ``passes`` timed passes.

    Returns the ``records`` of the completed passes and their
    ``latency_ms`` matrix (pass x op slot), the ``answers`` to check as
    ``(pass, op, case, answer)``, every op's ``(start, end, pass)`` in
    ``intervals``, and the ops ``attempted`` and ``failed``.
    """
    target.load(data.lists)
    for index in data.warmup:
        target.run_pass(index, [])
    if workload.kind == "serve":
        target.call({"op": "stats_reset"})
    per_pass = math.ceil(config.ORACLE_SAMPLES / passes)
    deadline = time.monotonic() + config.OVERRUN * budget_s
    records, answers, intervals, latency = [], [], [], []
    attempted = failed = 0
    for index in range(passes):
        ops = data.lists[data.passes[index]]
        probe_py, probe_np = machine.probe()
        gc.collect()
        result = target.run_pass(data.passes[index],
                                 sample_ops(rng, ops, per_pass))
        attempted += len(ops)
        failed += result.failed
        if len(result.latency_ns) < len(ops):
            break  # the stream broke mid-pass: nothing more is measurable
        latency_ms = np.asarray(result.latency_ns) / 1e6
        cases = len(ops) * workload.cases_per_op
        records.append({
            "pass": index, "group": data.group(index), "ops": len(ops),
            "cases": cases, "failed": result.failed,
            "p50_ms": float(np.median(latency_ms)),
            "wall_s": result.wall_ns / 1e9, "cpu_s": result.cpu_s,
            "reply_bytes": result.reply_bytes,
            "probe_py_ms": probe_py, "probe_np_small_ms": probe_np,
        })
        latency.append(latency_ms)
        answers += [(index, op, case, answer)
                    for op, case, answer in result.answers]
        intervals += [(start, start + took, index) for start, took
                      in zip(result.start_ns, result.latency_ns)]
        if time.monotonic() > deadline:
            break
    if not latency:
        raise SystemExit(f"{workload.name}: no pass completed")
    return {"records": records, "answers": answers, "intervals": intervals,
            "latency_ms": np.array(latency),
            "attempted": attempted, "failed": failed}


def quiet_round(run: dict) -> dict:
    """The quiet estimates of a phase.

    Interference on a shared host only ever slows work down, so among the
    replicas of one piece of work the fastest is the one least disturbed:
    per op slot, its lowest latency over the passes of its group; per
    group, its least wall time and its least CPU time.  A *round* is one
    pass of every group, and the estimates describe the quietest round
    that can be assembled from the passes that ran.
    """
    done = run["records"]
    rows: dict[int, list[int]] = {}
    for i, record in enumerate(done):
        rows.setdefault(record["group"], []).append(i)
    by_group = [[done[i] for i in members] for members in rows.values()]
    slots = np.concatenate([run["latency_ms"][members].min(axis=0)
                            for members in rows.values()])
    cases = sum(passes[0]["cases"] for passes in by_group)
    floor = {g: min(done[i]["p50_ms"] for i in members)
             for g, members in rows.items()}
    relative = [r["p50_ms"] / floor[r["group"]] for r in done]
    calm = [r for r, x in zip(done, relative) if x <= 1 + config.QUIET_BAND]
    return {
        "latency_ms_p50": float(np.median(slots)),
        "throughput_cases_s": cases / sum(
            min(r["wall_s"] for r in passes) for passes in by_group),
        "cpu_ms_per_case": 1e3 / cases * sum(
            min(r["cpu_s"] for r in passes) for passes in by_group),
        #: The passes within ``QUIET_BAND`` of their group's quietest: the
        #: sample the tail diagnostics and the traced ledger are read from.
        "passes": {r["pass"] for r in calm},
        "reply_bytes": statistics.median(r["reply_bytes"] for r in calm),
        "pass.spread": statistics.median(relative),
        "probe.quiet_pass_share": len(calm) / len(done),
    }


def check_answers(oracle: Oracle, data: gen.Inputs, answers: list) -> int:
    """Number of sampled answers the oracle rejects."""
    wrong = 0
    for index, op_index, case, answer in answers:
        op = data.lists[data.passes[index]][op_index]
        evidence = op["cases"][case] if "cases" in op else op["evidence"]
        why = ("no answer" if answer is None else
               oracle.mismatch(evidence, op.get("targets", ()), answer))
        if why is not None:
            wrong += 1
            print(f"wrong answer, pass {index} op {op_index} case {case}: "
                  f"{why}", file=sys.stderr)
    return wrong


def measure_setup(workload, data: gen.Inputs, oracle: Oracle,
                  spawns: int) -> tuple[list, int, int]:
    """Spawn-to-first-correct-answer times of ``spawns`` fresh processes,
    and the ops that took (attempted, failed)."""
    ops = data.lists[0]
    first = next(i for i, op in enumerate(ops)
                 if "evidence" in op or "cases" in op)
    start_up = gen.Inputs([ops[:first + 1]], [], [0], True, "")
    times, wrong = [], 0
    for _ in range(spawns):
        start = time.perf_counter()
        with start_target(workload) as target:
            target.load(start_up.lists)
            result = target.run_pass(0, [[first, 0]])
            times.append(time.perf_counter() - start)
        wrong += result.failed + check_answers(
            oracle, start_up, [(0, *answer) for answer in result.answers])
    return times, spawns * (first + 1), wrong


def server_counters(target) -> dict:
    """The server's own account of the measured passes (``stats`` ops)."""
    stats = target.call({"op": "stats"})
    cache = next(iter(target.call({"op": "cache_stats"})["models"].values()))
    stages = stats["stages"]
    lookups = (cache["result_hits"] + cache["delta_served"]
               + cache["declined"]) or 1
    return {
        "service.server.parse_ms": stages["parse"]["mean_ms"],
        "service.server.serialize_ms": stages["serialize"]["mean_ms"],
        "service.batcher.queue_wait_ms":
            stages.get("queue_wait", {}).get("mean_ms", 0.0),
        "service.batcher.mean_fill": stats["batches"]["mean_fill"],
        "service.cache.memo_share": cache["result_hits"] / lookups,
        "service.cache.delta_share": cache["delta_served"] / lookups,
        "service.cache.declined_share": cache["declined"] / lookups,
        "jt.incremental.delta_size_mean": stats["sessions"]["mean_delta_size"],
    }


def off_path(workload, values: dict) -> list[str]:
    """Ways ``values`` say the workload left the path it is named for."""
    return [f"{name} = {values[name]}, expected {want}"
            for name, want in workload.on_path.items()
            if name in values and values[name] != want]


def untraced_phase(workload, data, passes, budget_s, rng, oracle) -> dict:
    with start_target(workload) as target:
        run = run_passes(target, workload, data, passes, budget_s, rng)
        counters = (server_counters(target) if workload.kind == "serve"
                    else {})
        rss = peak_rss_mb(target.pid)
    records = run["records"]
    quiet = quiet_round(run)
    calm = np.concatenate([run["latency_ms"][i] for i, r in enumerate(records)
                           if r["pass"] in quiet["passes"]])
    return {
        "records": records, "counters": counters,
        "problems": off_path(workload, counters),
        "attempted": run["attempted"],
        "failed": run["failed"] + check_answers(oracle, data, run["answers"]),
        "end_to_end": {
            "latency_ms_p50": quiet["latency_ms_p50"],
            "throughput_cases_s": quiet["throughput_cases_s"],
            "cpu_ms_per_case": quiet["cpu_ms_per_case"],
            "peak_rss_mb": rss,
        },
        "diagnostics": {
            "tail.latency_ms_p90": float(np.percentile(calm, 90)),
            "tail.latency_ms_p99": float(np.percentile(calm, 99)),
            "pass.spread": quiet["pass.spread"],
            "probe.quiet_pass_share": quiet["probe.quiet_pass_share"],
            "probe.py_ms": statistics.median(
                r["probe_py_ms"] for r in records),
            "probe.np_small_ms": statistics.median(
                r["probe_np_small_ms"] for r in records),
        },
    }


def traced_phase(workload, data, passes, budget_s, rng, oracle,
                 base: dict) -> dict:
    """Passes with spans installed -> every per-layer metric."""
    trace_path = config.OUT / f"trace-{workload.name}.json"
    with start_target(workload, trace_path) as target:
        run = run_passes(target, workload, data, passes, budget_s, rng)
        info = target.info
    intervals = run["intervals"]
    with open(trace_path) as f:
        resolved = spans.attribute(json.load(f), intervals)
    with open(trace_path, "w") as f:
        json.dump({"ops": intervals, "spans": resolved}, f)
    quiet = quiet_round(run)
    book = spans.ledger(resolved, intervals, quiet["passes"])
    rows = book["rows"]

    def row(name: str, field: str) -> float:
        return rows[name][field] if name in rows else 0.0

    layers = dict.fromkeys((m["name"] for m in CONTRACT["per_layer"]), 0.0)
    layers.update({metric: row(span, "self_ms")
                   for metric, span in SELF_TIME.items()})
    layers.update(base["diagnostics"])
    layers.update(base["counters"])
    spec = oracle.engine.plan.spec
    # Table entries one calibration touches: each message scans its
    # source clique and rescales its destination, in both directions.
    entries = 2 * sum(spec.clique_sizes[e.child] + spec.clique_sizes[e.parent]
                      for e in spec.edges.values())
    batch_calls = row("core.batch.infer_cases", "calls")
    batch_cases = row("core.batch.infer_cases", "n")
    kernel_ms = (layers["exec.kernels.schedule_ms"]
                 + layers["exec.kernels.batch_schedule_ms"])
    layers.update({
        "exec.kernels.messages_per_op":
            row("exec.kernels.schedule", "n")
            + row("exec.kernels.message_batch", "calls"),
        "exec.kernels.ns_per_entry":
            kernel_ms * 1e6 / (entries * (batch_cases or 1)),
        "exec.plan.arena_bytes": info["plan_arena_bytes"],
        "core.batch.infer_cases_ms": row("core.batch.infer_cases", "total_ms"),
        "core.batch.cases_per_call":
            batch_cases / batch_calls if batch_calls else 0.0,
        "core.batch.us_per_case":
            (row("core.batch.infer_cases", "total_ms") * 1e3 / batch_cases
             if batch_cases else 0.0),
        "jt.incremental.messages_recomputed_per_op": sum(
            row(f"jt.incremental.{call}", "n")
            for call in ("update", "posteriors", "log_evidence")),
        "trace.overhead_ratio":
            quiet["latency_ms_p50"] / base["end_to_end"]["latency_ms_p50"],
    })
    if workload.kind == "serve":
        wire = book["beyond_entry_ms"]
        layers.update({
            "service.server.wire_ms": wire,
            "service.server.response_bytes": quiet["reply_bytes"],
            # What of the wire the server's parse/serialize stages do not
            # explain: loop hops, dispatch, TCP and the client's syscalls.
            "unattributed_ms": (wire - layers["service.server.parse_ms"]
                                - layers["service.server.serialize_ms"]),
        })
    else:
        layers["unattributed_ms"] = book["beyond_entry_ms"]
    return {
        "records": run["records"], "ledger": rows, "per_layer": layers,
        "problems": off_path(workload, layers),
        "op_ms": book["op_ms"],
        "attempted": run["attempted"],
        "failed": run["failed"] + check_answers(oracle, data, run["answers"]),
    }


def run_workload(workload: config.Workload, args) -> dict:
    """Everything ``--trace`` asks for on one workload, as one record."""
    if args.smoke:
        ops_per_pass, base_passes, traced_passes, spawns = (
            workload.smoke_ops, 1, 1, 1)
    else:
        ops_per_pass, spawns = workload.ops_per_pass, config.SETUP_SPAWNS
        share = config.TRACE_BASE_SHARE if args.trace == "1" else 1.0
        base_passes = config.passes_for(workload, args.seconds * share)
        traced_passes = config.passes_for(workload, config.TRACED_SECONDS)
    data = gen.build(workload, args.seed, max(base_passes, traced_passes),
                     ops_per_pass)
    oracle = Oracle(workload.network)
    rng = np.random.default_rng(args.seed)
    record = {"workload": workload.name, "why": workload.why,
              "network": workload.network, "ops_per_pass": ops_per_pass,
              "cases_per_op": workload.cases_per_op,
              "inputs_sha256": data.sha256}
    base = untraced_phase(
        workload, data, base_passes,
        base_passes * workload.pass_seconds, rng, oracle)
    attempted, failed = base["attempted"], base["failed"]
    problems = base["problems"]
    record.update(passes=base["records"], server=base["counters"])
    if args.trace != "1":
        setups, tried, wrong = measure_setup(workload, data, oracle, spawns)
        attempted += tried
        failed += wrong
        record["setup_s_samples"] = setups
        record["end_to_end"] = {**base["end_to_end"],
                                "setup_s": statistics.median(setups)}
    if args.trace != "0":
        traced = traced_phase(
            workload, data, traced_passes,
            traced_passes * workload.pass_seconds, rng, oracle, base)
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems = list(dict.fromkeys(problems + traced["problems"]))
        record.update(traced_passes=traced["records"],
                      ledger=traced["ledger"], traced_op_ms=traced["op_ms"],
                      per_layer=traced["per_layer"])
    for problem in problems:
        print(f"{workload.name} is off its path: {problem}", file=sys.stderr)
    record.update(attempted=attempted, failed=failed, off_path=problems,
                  correct=not failed and not problems)
    return record


def report(record: dict) -> dict:
    """Print one workload's metrics; return them in the driver's shape."""
    print(f"\n== {record['workload']}  ({record['network']}, "
          f"{len(record['passes'])} passes x {record['ops_per_pass']} ops x "
          f"{record['cases_per_op']} cases)  inputs {record['inputs_sha256'][:12]}")
    metrics = {}
    for section in ("end_to_end", "per_layer"):
        for spec in CONTRACT[section] if section in record else ():
            value = record[section][spec["name"]]
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"  {spec['name']:<44}{value:>14.6g} {spec['unit']}")
    if "ledger" in record:
        print(f"  -- ledger of the quiet traced passes "
              f"(op {record['traced_op_ms']:.4g} ms): span, self ms, share")
        for name, row in sorted(record["ledger"].items(),
                                key=lambda kv: -kv[1]["self_ms"]):
            print(f"     {name:<34}{row['self_ms']:>10.4f} "
                  f"{row['self_ms'] / record['traced_op_ms']:>7.1%}"
                  f"  x{row['calls']:.3g}/op in {row['ops']} ops")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {record['correct']}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(config.WORKLOADS))
    parser.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=config.DEFAULT_SECONDS,
                        help="measuring time per workload at nominal speed")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end only, 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny pass of everything (a wiring check)")
    parser.add_argument("--out", default=str(config.OUT / "result.json"))
    args = parser.parse_args()

    fingerprint = machine.fingerprint()
    names = [args.workload] if args.workload else list(config.WORKLOADS)
    records = {name: run_workload(config.WORKLOADS[name], args)
               for name in names}
    metrics = {name: report(record) for name, record in records.items()}
    with open(args.out, "w") as f:
        json.dump({"fingerprint": fingerprint, "seed": args.seed,
                   "seconds": args.seconds, "smoke": args.smoke,
                   "workloads": records, "claim": None}, f, indent=1)
    correct = all(r["correct"] for r in records.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics[args.workload] if args.workload else metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
