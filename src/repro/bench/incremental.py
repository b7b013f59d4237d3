"""Incremental-recalibration benchmark: speedup vs. evidence overlap.

Serving traffic rarely re-randomises its evidence from scratch — a
monitoring dashboard re-asks with one fresh reading, a clinician toggles
one finding.  This sweep quantifies what the delta path
(:mod:`repro.jt.incremental`) buys as a function of how much consecutive
queries' evidence overlaps:

* the **full** path compiles once, then pays a complete two-phase
  calibration per query (:class:`repro.core.FastBNI`, ``mode="seq"`` —
  the serving configuration);
* the **delta** path keeps one calibrated state and re-propagates only
  the subtree the evidence edit dirtied.

Both paths answer the same chained query sequences (hard evidence over
``evidence_vars`` variables, re-randomising ``(1 - overlap)`` of the
findings per step, single posterior target + ``log P(e)`` per query — the
service's common shape) and every sequence is checked for agreement, so
the artifact doubles as a correctness witness (``max_abs_diff``).

``python -m repro.cli incremental`` renders the table and writes
``BENCH_incremental.json``; CI uploads it per run so the speedup
trajectory is diffable across PRs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.bn.repository import resolve_network
from repro.core import FastBNI
from repro.errors import EvidenceError
from repro.jt.incremental import IncrementalEngine

#: Overlap fractions swept by default; 0.75+ is the ISSUE's headline regime.
DEFAULT_OVERLAPS = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
DEFAULT_QUERIES = 200
DEFAULT_EVIDENCE_VARS = 4

SCHEMA = "fastbni-bench-incremental-v1"


def _evidence_sequences(net, checker, rng, *, overlap: float, k: int,
                        num_queries: int, exclude: set[str]):
    """Chained feasible evidence dicts with ~``overlap`` kept per step.

    ``checker(evidence) -> bool`` filters zero-probability combinations
    (deterministic CPTs make some mixed assignments impossible); the
    filter runs outside the timed region.
    """
    names = [n for n in net.variable_names if n not in exclude]
    k = min(k, len(names))
    swaps = max(0, round(k * (1.0 - overlap)))

    def random_evidence(base: dict[str, int] | None) -> dict[str, int]:
        if base is None:
            chosen = list(rng.choice(names, size=k, replace=False))
            return {n: int(rng.integers(net.variable(n).cardinality))
                    for n in chosen}
        out = dict(base)
        for _ in range(swaps):
            out.pop(str(rng.choice(list(out))))
        free = [n for n in names if n not in out]
        while len(out) < k and free:
            pick = str(rng.choice(free))
            free.remove(pick)
            out[pick] = int(rng.integers(net.variable(pick).cardinality))
        return out

    sequence: list[dict[str, int]] = []
    current: dict[str, int] | None = None
    for _ in range(num_queries):
        for _attempt in range(100):
            candidate = random_evidence(current)
            if checker(candidate):
                current = candidate
                break
        else:  # pragma: no cover - bundled nets always admit feasible draws
            raise EvidenceError(
                f"could not draw feasible evidence for {net.name!r}")
        sequence.append(current)
    return sequence


def run_incremental(network: str = "asia",
                    overlaps: tuple[float, ...] = DEFAULT_OVERLAPS,
                    num_queries: int = DEFAULT_QUERIES,
                    evidence_vars: int = DEFAULT_EVIDENCE_VARS,
                    seed: int = 2023) -> dict:
    """Run the sweep; returns the JSON-ready report dict.

    One row per overlap fraction with per-query latency of both paths,
    the speedup, the mean applied delta size, messages re-propagated per
    query on the delta path, and the worst posterior/log P(e)
    disagreement observed (must sit at float64 round-off).
    """
    net = resolve_network(network)
    rng = np.random.default_rng(seed)
    full = FastBNI(net, mode="seq")
    checker_state = IncrementalEngine(full.tree)

    def feasible(evidence: dict[str, int]) -> bool:
        try:
            checker_state.update(evidence)
            return np.isfinite(checker_state.log_evidence())
        except EvidenceError:
            return False

    # A fixed target kept out of the evidence pool: the service's common
    # "one posterior + P(e)" query shape.
    target = net.variable_names[-1]
    targets = (target,)
    rows = []
    for overlap in overlaps:
        sequence = _evidence_sequences(
            net, feasible, rng, overlap=overlap, k=evidence_vars,
            num_queries=num_queries, exclude={target})

        start = time.perf_counter()
        full_results = [full.infer(e, targets) for e in sequence]
        full_s = time.perf_counter() - start

        delta_engine = IncrementalEngine(full.tree)
        before = dict(delta_engine.counters)
        delta_sizes = []
        start = time.perf_counter()
        delta_results = []
        for e in sequence:
            d = delta_engine.update(e)
            delta_sizes.append(d.size)
            delta_results.append(
                (delta_engine.posteriors(targets), delta_engine.log_evidence()))
        delta_s = time.perf_counter() - start
        after = delta_engine.counters

        max_diff = 0.0
        for ref, (post, log_ev) in zip(full_results, delta_results):
            max_diff = max(max_diff, float(np.max(
                np.abs(post[target] - ref.posteriors[target]))))
            max_diff = max(max_diff, abs(log_ev - ref.log_evidence))
        messages = ((after["up_recomputed"] - before["up_recomputed"])
                    + (after["down_recomputed"] - before["down_recomputed"]))
        rows.append({
            "overlap": overlap,
            "queries": len(sequence),
            "full_ms_per_query": full_s * 1e3 / len(sequence),
            "delta_ms_per_query": delta_s * 1e3 / len(sequence),
            "speedup": full_s / delta_s if delta_s > 0 else float("inf"),
            "mean_delta_size": float(np.mean(delta_sizes)),
            "messages_per_query": messages / len(sequence),
            "max_abs_diff": max_diff,
        })
    full.close()
    tree_stats = checker_state.tree.stats()
    return {
        "schema": SCHEMA,
        "network": network,
        "config": {"num_queries": num_queries,
                   "evidence_vars": evidence_vars,
                   "target": target, "seed": seed},
        "tree": {"num_cliques": tree_stats["num_cliques"],
                 "num_separators": tree_stats["num_separators"],
                 "full_messages": 2 * int(tree_stats["num_separators"])},
        "rows": rows,
    }


def render_incremental(report: dict) -> str:
    """Fixed-width table of the sweep (the CLI's stdout)."""
    lines = [
        f"incremental recalibration on {report['network']!r} "
        f"({report['config']['num_queries']} queries/row, "
        f"{report['config']['evidence_vars']} evidence vars, "
        f"target {report['config']['target']!r})",
        f"{'overlap':>8} {'full ms':>9} {'delta ms':>9} {'speedup':>8} "
        f"{'edits':>6} {'msgs/q':>7} {'max diff':>9}",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['overlap']:>8.2f} {row['full_ms_per_query']:>9.3f} "
            f"{row['delta_ms_per_query']:>9.3f} {row['speedup']:>7.1f}x "
            f"{row['mean_delta_size']:>6.1f} {row['messages_per_query']:>7.1f} "
            f"{row['max_abs_diff']:>9.1e}"
        )
    full_messages = report["tree"]["full_messages"]
    lines.append(f"(full recalibration re-propagates {full_messages} "
                 "messages per query)")
    return "\n".join(lines)


def write_incremental(report: dict, path: Path | str) -> None:
    """Write the report as ``BENCH_incremental.json`` (CI artifact)."""
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
