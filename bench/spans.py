"""Layer spans recorded from outside the program, and the ledger they give.

``install()`` replaces public call boundaries of ``repro`` with wrappers
that append ``(name, start, end, n)`` to an in-memory list — nothing under
``src/`` changes and nothing is installed in an end-to-end run.  Clocks are
``CLOCK_MONOTONIC`` nanoseconds, which client and server processes share.

Every workload keeps exactly one op in flight, so attribution needs no
identifiers on the wire: a span belongs to the op whose ``[start, next
start)`` interval holds its start, and its parent is the tightest span
that encloses it in time.  A span's self time is its duration minus its
children's.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from bisect import bisect_right
from time import monotonic_ns


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []

    def wrap(self, fn, name: str, before=None, count=None):
        """``fn`` with a span around it.  ``count(result, before(*args))``
        gives the span's work count ``n`` (cases, messages); 0 when absent."""
        self.names.append(name)
        idx = len(self.names) - 1
        add = self.spans.append

        def finish(start, end, result, seen):
            add((idx, start, end,
                 count(result, seen) if count is not None else 0))

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                seen = before(*args) if before is not None else None
                start = monotonic_ns()
                result = await fn(*args, **kwargs)
                finish(start, monotonic_ns(), result, seen)
                return result
        else:
            def wrapper(*args, **kwargs):
                seen = before(*args) if before is not None else None
                start = monotonic_ns()
                result = fn(*args, **kwargs)
                finish(start, monotonic_ns(), result, seen)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def method(self, cls, attr: str, name: str, **counting) -> None:
        setattr(cls, attr, self.wrap(getattr(cls, attr), name, **counting))

    def function(self, module, attr: str, name: str, **counting) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **counting)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.startswith("repro") and mod is not None
                    and mod.__dict__.get(attr) is original):
                setattr(mod, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names, "spans": self.spans}, f)


def install() -> Recorder:
    """Wrap every layer boundary the ledger names; returns the recorder."""
    import repro.core.batch as batch
    import repro.exec.kernels as kernels
    import repro.jt.query as query
    from repro.core.fastbni import FastBNI
    from repro.exec.plan import MessagePlan
    from repro.jt.incremental import IncrementalEngine
    from repro.service.batcher import MicroBatcher
    from repro.service.cache import InferenceCache
    from repro.service.registry import ModelRegistry
    from repro.service.sessions import SessionManager

    rec = Recorder()
    rec.method(FastBNI, "infer", "core.infer")
    for attr, name in (("fresh_state", "fresh_state"),
                       ("absorb_hard_evidence", "absorb"),
                       ("read_posteriors", "read"),
                       ("fresh_batch_state", "fresh_batch_state"),
                       ("absorb_evidence_batch", "absorb_batch")):
        rec.method(MessagePlan, attr, f"exec.plan.{name}")
    rec.function(kernels, "run_message_schedule", "exec.kernels.schedule",
                 count=lambda messages, _: messages)
    rec.function(batch, "infer_cases", "core.batch.infer_cases",
                 count=lambda result, _: len(result))
    rec.method(type(kernels.get_kernels("native")), "message_batch",
               "exec.kernels.message_batch")
    rec.function(query, "all_posteriors_batch", "jt.query.read_batch")
    rec.method(MicroBatcher, "submit", "service.batcher.submit")
    for attr in ("get", "get_pinned"):
        rec.method(ModelRegistry, attr, "service.registry.lookup")
    for attr in ("serve_cases", "record_cold"):
        rec.method(InferenceCache, attr, f"service.cache.{attr}")
    for attr in ("open", "update", "query", "close"):
        rec.method(SessionManager, attr, f"service.sessions.{attr}")

    def recomputed(engine, *_):
        return (engine.counters["up_recomputed"]
                + engine.counters["down_recomputed"])

    rec.method(IncrementalEngine, "clone", "jt.incremental.clone")
    for attr in ("update", "posteriors", "log_evidence"):
        # The engine is the bound ``self``; messages recomputed = the
        # growth of its own work counters across the call.
        rec.method(IncrementalEngine, attr, f"jt.incremental.{attr}",
                   before=lambda engine, *_: (engine, recomputed(engine)),
                   count=lambda _, seen: recomputed(seen[0]) - seen[1])
    return rec


#: The outermost of these spans is the one that serves an op; what the op's
#: wall time holds beyond it is the wire (servers) or the worker's own loop
#: (library).
ENTRY_SPANS = frozenset({
    "core.infer", "core.batch.infer_cases", "service.batcher.submit",
    "service.sessions.open", "service.sessions.update",
    "service.sessions.query", "service.sessions.close",
})


def attribute(trace: dict, ops: list) -> list[dict]:
    """Resolve raw spans against op intervals.

    ``ops`` is ``[(start_ns, end_ns, pass_index), ...]`` in time order.
    Returns one dict per span that started inside an op:
    ``{name, start, end, n, parent, op, self_ns}`` with ``parent`` an index
    into the returned list (or ``None``) and ``op`` an index into ``ops``.
    """
    names = trace["names"]
    starts = [op[0] for op in ops]
    spans = []
    for idx, start, end, n in sorted(trace["spans"],
                                     key=lambda s: (s[1], -s[2])):
        op = bisect_right(starts, start) - 1
        if op >= 0:
            spans.append({"name": names[idx], "start": start, "end": end,
                          "n": n, "parent": None, "op": op,
                          "self_ns": end - start})
    stack: list[int] = []
    for i, span in enumerate(spans):
        while stack and spans[stack[-1]]["end"] < span["end"]:
            stack.pop()
        if stack:
            span["parent"] = stack[-1]
            spans[stack[-1]]["self_ns"] -= span["end"] - span["start"]
        stack.append(i)
    return spans


def ledger(spans: list[dict], ops: list, passes: set) -> dict:
    """Per-layer medians over the ops of the given passes.

    ``rows[name]`` holds, over the ops in which the span occurs, the median
    per-op ``self_ms`` and ``total_ms`` (summed over calls), plus mean
    ``calls`` and mean work count ``n`` per op.  ``op_ms`` is the median op
    wall time and ``beyond_entry_ms`` the median part of it not inside the
    op's entry span.
    """
    in_pass = {i for i, op in enumerate(ops) if op[2] in passes}
    per_op: dict[str, dict[int, list[float]]] = {}
    entry_ns = dict.fromkeys(in_pass, 0)
    for span in spans:
        op = span["op"]
        if op not in in_pass:
            continue
        cell = per_op.setdefault(span["name"], {}).setdefault(
            op, [0.0, 0.0, 0, 0])
        cell[0] += max(span["self_ns"], 0) / 1e6
        cell[1] += (span["end"] - span["start"]) / 1e6
        cell[2] += 1
        cell[3] += span["n"]
        if span["name"] in ENTRY_SPANS and span["parent"] is None:
            entry_ns[op] += span["end"] - span["start"]
    rows = {}
    for name, cells in per_op.items():
        values = list(cells.values())
        rows[name] = {
            "self_ms": statistics.median(v[0] for v in values),
            "total_ms": statistics.median(v[1] for v in values),
            "calls": statistics.fmean(v[2] for v in values),
            "n": statistics.fmean(v[3] for v in values),
            "ops": len(values),
        }
    wall = {i: ops[i][1] - ops[i][0] for i in in_pass}
    return {"rows": rows,
            "op_ms": statistics.median(wall.values()) / 1e6,
            "beyond_entry_ms": statistics.median(
                (wall[i] - entry_ns[i]) / 1e6 for i in in_pass)}
