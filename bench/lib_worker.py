"""The process under test for the library workloads.

Builds the fast-path engine, then serves JSON-line commands on stdin:
``{"cmd": "load", "lists": [...]}`` stores the run's op lists and
``{"cmd": "pass", "list": k, "want": [[op, case], ...]}`` runs list ``k``
once, one op at a time, returning per-op latencies, the pass's wall and CPU
time, and the answers of the wanted ``(op, case)`` pairs.  With a trace path as second
argument the span wrappers are installed first and dumped at exit.
"""

from __future__ import annotations

import gc
import json
import sys
import time

from config import ENGINE_OPTIONS, WORKLOADS
from repro import BatchedFastBNI, FastBNI, load_network


def answer_of(result) -> dict:
    return {"posteriors": {name: values.tolist()
                           for name, values in result.posteriors.items()},
            "log_evidence": result.log_evidence}


def run_pass(call, ops: list, want: dict) -> dict:
    """One closed-loop pass: the next op starts when the last has returned."""
    latencies, starts, kept = [], [], {}
    failed = 0
    clock = time.monotonic_ns
    gc.collect()
    cpu = time.process_time()
    begin = clock()
    for i, op in enumerate(ops):
        start = clock()
        try:
            result = call(op)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            print(f"op {i} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            result = None
            failed += 1
        latencies.append(clock() - start)
        starts.append(start)
        if i in want:
            kept[i] = result
    wall = clock() - begin
    cpu = time.process_time() - cpu
    answers = []
    for i, result in kept.items():
        batched = hasattr(result, "case")
        for case in want[i]:
            answers.append([i, case, None if result is None else answer_of(
                result.case(case) if batched else result)])
    return {"latency_ns": latencies, "start_ns": starts, "wall_ns": wall,
            "cpu_s": cpu, "failed": failed, "answers": answers}


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    trace_path = sys.argv[2] if len(sys.argv) > 2 else None
    recorder = None
    if trace_path:
        import spans

        recorder = spans.install()
    net = load_network(workload.network)
    if workload.name == "lib_batch":
        engine = BatchedFastBNI(net, **ENGINE_OPTIONS)
        call = lambda op: engine.infer_cases(op["cases"])  # noqa: E731
    else:
        engine = FastBNI(net, **ENGINE_OPTIONS)
        call = lambda op: engine.infer(op["evidence"], targets=())  # noqa: E731
    # The same two facts a server's ``info`` op reports about its engine.
    print(json.dumps({"kernels": engine.kernels.name,
                      "plan_arena_bytes": engine.plan.arena_bytes}),
          flush=True)
    lists: list = []
    with engine:
        for line in sys.stdin:
            msg = json.loads(line)
            if msg["cmd"] == "load":
                lists = msg["lists"]
                reply = {"loaded": len(lists)}
            else:
                want: dict = {}
                for op, case in msg["want"]:
                    want.setdefault(op, []).append(case)
                reply = run_pass(call, lists[msg["list"]], want)
            print(json.dumps(reply), flush=True)
    if recorder is not None:
        recorder.dump(trace_path)


if __name__ == "__main__":
    main()
