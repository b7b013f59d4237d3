"""Evidence-overlap sweep: what does delta recalibration buy?

Serving traffic rarely re-randomises its evidence from scratch — a
monitoring dashboard re-asks with one fresh reading, a clinician toggles
one finding.  ``fastbni incremental`` (``BENCH_incremental.json``)
quantifies what re-propagating only the dirtied subtree buys as a
function of how much consecutive queries' evidence overlaps, on a bare
:class:`~repro.jt.incremental.IncrementalEngine` (the library's delta
engine; the service answers every case whole), with the messages it
re-propagated per query.

It is compared with the **cold** path — compile once, then a complete
two-phase calibration per query (:class:`repro.core.FastBNI`,
``mode="seq"``) — over the same chained query sequences (hard evidence
over ``evidence_vars`` variables, re-randomising ``(1 - overlap)`` of the
findings per step, one posterior target + ``log P(e)`` per query).  Every
step is cross-checked, so the artifact doubles as a correctness witness:
``max_abs_diff`` must sit at float64 round-off.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.artifact import Artifact, Flag, Gate, csv_of
from repro.bn.repository import resolve_network
from repro.core import FastBNI
from repro.errors import EvidenceError
from repro.jt.incremental import IncrementalEngine

EVIDENCE_VARS = 4


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


def _delta_walk(tree, sequence, targets):
    """The warm path: one :class:`IncrementalEngine` walked through
    ``sequence``; returns seconds, per-step results and messages/query."""
    engine = IncrementalEngine(tree)
    steps = []
    start = time.perf_counter()
    for evidence in sequence:
        size = engine.update(evidence).size
        steps.append((size, engine.posteriors(targets),
                      engine.log_evidence()))
    elapsed = time.perf_counter() - start
    recomputed = (engine.counters["up_recomputed"]
                  + engine.counters["down_recomputed"])
    return elapsed, steps, recomputed / len(sequence)


def run_incremental(network: str = "asia",
                    overlaps=(0.0, 0.25, 0.5, 0.75, 0.9, 1.0),
                    num_queries: int = 200,
                    evidence_vars: int = EVIDENCE_VARS,
                    seed: int = 2023) -> dict:
    """One row per overlap fraction: per-query latency of the full and the
    delta path, their ratio, the mean applied delta size, the messages the
    delta path re-propagated and the worst posterior / log P(e)
    disagreement between the two paths."""
    net = resolve_network(network)
    rng = np.random.default_rng(seed)
    cold = FastBNI(net, mode="seq")
    checker_state = IncrementalEngine(cold.tree)

    def feasible(evidence: dict[str, int]) -> bool:
        try:
            checker_state.update(evidence)
            return np.isfinite(checker_state.log_evidence())
        except EvidenceError:
            return False

    # A fixed target kept out of the evidence pool: the service's common
    # "one posterior + P(e)" query shape.
    target = net.variable_names[-1]
    rows = []
    for overlap in overlaps:
        sequence = _evidence_sequences(
            net, feasible, rng, overlap=overlap, k=evidence_vars,
            num_queries=num_queries, exclude={target})

        start = time.perf_counter()
        cold_results = [cold.infer(e, (target,)) for e in sequence]
        cold_s = time.perf_counter() - start
        warm_s, steps, messages = _delta_walk(cold.tree, sequence, (target,))

        max_diff = 0.0
        for ref, (_, post, log_ev) in zip(cold_results, steps):
            max_diff = max(max_diff, abs(log_ev - ref.log_evidence), float(
                np.max(np.abs(post[target] - ref.posteriors[target]))))
        rows.append({
            "overlap": overlap,
            "queries": len(sequence),
            "full_ms_per_query": cold_s * 1e3 / len(sequence),
            "delta_ms_per_query": warm_s * 1e3 / len(sequence),
            "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
            "mean_delta_size": float(np.mean([s[0] for s in steps])),
            "messages_per_query": messages,
            "max_abs_diff": max_diff,
        })
    cold.close()
    stats = checker_state.tree.stats()
    return {
        "schema": INCREMENTAL.schema,
        "network": network,
        "config": {"num_queries": num_queries,
                   "evidence_vars": evidence_vars,
                   "target": target, "seed": seed},
        "tree": {"num_cliques": stats["num_cliques"],
                 "num_separators": stats["num_separators"],
                 "full_messages": 2 * int(stats["num_separators"])},
        "rows": rows,
    }


def _render(report: dict) -> str:
    """Fixed-width table of the sweep (the CLI's stdout)."""
    cfg = report["config"]
    lines = [
        f"incremental recalibration on {report['network']!r} "
        f"({cfg['num_queries']} queries/row, {cfg['evidence_vars']} "
        f"evidence vars, target {cfg['target']!r})",
        f"{'overlap':>8} {'full ms':>9} {'delta ms':>9} {'speedup':>8} "
        f"{'edits':>6} {'msgs/q':>7} {'max diff':>9}",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['overlap']:>8.2f} {row['full_ms_per_query']:>9.3f} "
            f"{row['delta_ms_per_query']:>9.3f} {row['speedup']:>7.1f}x "
            f"{row['mean_delta_size']:>6.1f} "
            f"{row['messages_per_query']:>7.1f} "
            f"{row['max_abs_diff']:>9.1e}")
    lines.append(f"(full recalibration re-propagates "
                 f"{report['tree']['full_messages']} messages per query)")
    return "\n".join(lines)


INCREMENTAL = Artifact(
    name="incremental",
    help="delta-recalibration speedup vs evidence overlap (writes "
         "BENCH_incremental.json)",
    path="BENCH_incremental.json",
    schema="fastbni-bench-incremental-v1",
    flags=(
        Flag("--network", "asia", "bundled/analog name or .bif path"),
        Flag("--overlaps", "0.0,0.25,0.5,0.75,0.9,1.0",
             "comma-separated evidence-overlap fractions",
             parse=csv_of(float)),
        Flag("--queries", 200, "chained queries (steps) per overlap row",
             kwarg="num_queries"),
        Flag("--evidence-vars", EVIDENCE_VARS, "observed variables per query"),
        Flag("--seed", 2023, "RNG seed of the evidence sequences"),
    ),
    run=run_incremental,
    render=_render,
    check_flag="--incremental",
    gates=(
        Gate("rows[overlap>=0.75].speedup", ">=", 3.0),
        Gate("rows[*].max_abs_diff", "<", 1e-12),
    ),
)
