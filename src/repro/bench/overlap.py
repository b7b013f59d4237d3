"""Evidence-overlap sweep: what does keeping calibrated state buy?

Serving traffic rarely re-randomises its evidence from scratch — a
monitoring dashboard re-asks with one fresh reading, a clinician toggles
one finding.  One sweep quantifies what re-propagating only the dirtied
subtree buys as a function of how much consecutive queries' evidence
overlaps, at the two layers that keep state:

* ``fastbni incremental`` (``BENCH_incremental.json``) — a bare
  :class:`~repro.jt.incremental.IncrementalEngine`: the delta path
  itself, with the messages it re-propagated per query;
* ``fastbni sessions`` (``BENCH_sessions.json``) — the real serving stack,
  :class:`~repro.service.sessions.SessionManager` over a
  :class:`~repro.service.registry.ModelRegistry`: ``session_open`` + one
  ``update``-with-``targets`` per step, so byte accounting, LRU touching
  and per-session locking are all inside the timed region.

Both are compared with the **cold** path — compile once, then a complete
two-phase calibration per query (:class:`repro.core.FastBNI`,
``mode="seq"``, what a stateless ``query`` bottoms out in when nothing
useful is cached) — over the same chained query sequences (hard evidence
over ``evidence_vars`` variables, re-randomising ``(1 - overlap)`` of the
findings per step, one posterior target + ``log P(e)`` per query).  Every
step is cross-checked, so each artifact doubles as a correctness witness:
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


def _engine_walk(tree, network: str):
    """The warm path as a bare :class:`IncrementalEngine`."""
    def walk(sequence, targets):
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
        return elapsed, steps, {
            "messages_per_query": recomputed / len(sequence)}
    return walk, lambda: None


def _session_walk(tree, network: str):
    """The warm path through the serving stack's session manager."""
    from repro.service.registry import ModelRegistry
    from repro.service.sessions import SessionManager

    registry = ModelRegistry()
    manager = SessionManager(registry)
    registry.get(network)  # warm the entry: both paths start compiled

    def walk(sequence, targets):
        steps = []
        start = time.perf_counter()
        sid = manager.open(network)["session"]
        for evidence in sequence:
            r = manager.update(sid, evidence=evidence, replace=True,
                               targets=targets)
            steps.append((r["delta"]["size"], r["posteriors"],
                          r["log_evidence"]))
        manager.close(sid)
        return time.perf_counter() - start, steps, {}

    def close() -> None:
        manager.close_all()
        registry.close()
    return walk, close


def _sweep(make_walk, keys: tuple[str, str, str], schema: str, network: str,
           overlaps, num_queries: int, evidence_vars: int, seed: int) -> dict:
    """One row per overlap fraction: per-step latency of the cold and the
    warm path (row keys ``keys`` = step count, cold ms, warm ms), their
    ratio, the mean applied delta size and the worst posterior / log P(e)
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
    walk, close = make_walk(cold.tree, network)
    rows = []
    for overlap in overlaps:
        sequence = _evidence_sequences(
            net, feasible, rng, overlap=overlap, k=evidence_vars,
            num_queries=num_queries, exclude={target})

        start = time.perf_counter()
        cold_results = [cold.infer(e, (target,)) for e in sequence]
        cold_s = time.perf_counter() - start
        warm_s, steps, extra = walk(sequence, (target,))

        max_diff = 0.0
        for ref, (_, post, log_ev) in zip(cold_results, steps):
            max_diff = max(max_diff, abs(log_ev - ref.log_evidence), float(
                np.max(np.abs(post[target] - ref.posteriors[target]))))
        rows.append({
            "overlap": overlap,
            keys[0]: len(sequence),
            keys[1]: cold_s * 1e3 / len(sequence),
            keys[2]: warm_s * 1e3 / len(sequence),
            "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
            "mean_delta_size": float(np.mean([s[0] for s in steps])),
            **extra,
            "max_abs_diff": max_diff,
        })
    close()
    cold.close()
    stats = checker_state.tree.stats()
    return {
        "schema": schema,
        "network": network,
        "config": {"num_queries": num_queries,
                   "evidence_vars": evidence_vars,
                   "target": target, "seed": seed},
        "tree": {"num_cliques": stats["num_cliques"],
                 "num_separators": stats["num_separators"]},
        "rows": rows,
    }


INCREMENTAL_KEYS = ("queries", "full_ms_per_query", "delta_ms_per_query")
SESSIONS_KEYS = ("steps", "cold_ms_per_step", "session_ms_per_step")


def run_incremental(network: str = "asia",
                    overlaps=(0.0, 0.25, 0.5, 0.75, 0.9, 1.0),
                    num_queries: int = 200,
                    evidence_vars: int = EVIDENCE_VARS,
                    seed: int = 2023) -> dict:
    report = _sweep(_engine_walk, INCREMENTAL_KEYS, INCREMENTAL.schema,
                    network, overlaps, num_queries, evidence_vars, seed)
    report["tree"]["full_messages"] = 2 * int(report["tree"]["num_separators"])
    return report


def run_sessions(network: str = "diabetes", overlaps=(0.5, 0.75, 0.9),
                 num_queries: int = 80, evidence_vars: int = EVIDENCE_VARS,
                 seed: int = 2023) -> dict:
    """Default network: a deep paper analog where a cold calibration is
    genuinely expensive — on toy networks Python constant factors, not
    propagation, dominate both paths and the ratio measures noise."""
    return _sweep(_session_walk, SESSIONS_KEYS, SESSIONS.schema, network,
                  overlaps, num_queries, evidence_vars, seed)


def _render(report: dict, title: str, keys: tuple[str, str, str],
            heads: tuple[str, str], footer: str) -> str:
    """Fixed-width table of the sweep (the CLI's stdout)."""
    cfg = report["config"]
    msgs = "messages_per_query" in report["rows"][0]
    lines = [
        f"{title} on {report['network']!r} ({cfg['num_queries']} "
        f"{keys[0]}/row, {cfg['evidence_vars']} evidence vars, target "
        f"{cfg['target']!r})",
        f"{'overlap':>8} {heads[0]:>9} {heads[1]:>9} {'speedup':>8} "
        f"{'edits':>6} " + (f"{'msgs/q':>7} " if msgs else "")
        + f"{'max diff':>9}",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['overlap']:>8.2f} {row[keys[1]]:>9.3f} "
            f"{row[keys[2]]:>9.3f} {row['speedup']:>7.1f}x "
            f"{row['mean_delta_size']:>6.1f} "
            + (f"{row['messages_per_query']:>7.1f} " if msgs else "")
            + f"{row['max_abs_diff']:>9.1e}")
    lines.append(footer.format(**report["tree"]))
    return "\n".join(lines)


def _flags(network: str, overlaps: str, queries: int) -> tuple[Flag, ...]:
    return (
        Flag("--network", network, "bundled/analog name or .bif path"),
        Flag("--overlaps", overlaps,
             "comma-separated evidence-overlap fractions",
             parse=csv_of(float)),
        Flag("--queries", queries, "chained queries (steps) per overlap row",
             kwarg="num_queries"),
        Flag("--evidence-vars", EVIDENCE_VARS, "observed variables per query"),
        Flag("--seed", 2023, "RNG seed of the evidence sequences"),
    )


INCREMENTAL = Artifact(
    name="incremental",
    help="delta-recalibration speedup vs evidence overlap (writes "
         "BENCH_incremental.json)",
    path="BENCH_incremental.json",
    schema="fastbni-bench-incremental-v1",
    flags=_flags("asia", "0.0,0.25,0.5,0.75,0.9,1.0", 200),
    run=run_incremental,
    render=lambda report: _render(
        report, "incremental recalibration", INCREMENTAL_KEYS,
        ("full ms", "delta ms"),
        "(full recalibration re-propagates {full_messages} messages per "
        "query)"),
    check_flag="--incremental",
    gates=(
        Gate("rows[overlap>=0.75].speedup", ">=", 3.0),
        Gate("rows[*].max_abs_diff", "<", 1e-12),
    ),
)

SESSIONS = Artifact(
    name="sessions",
    help="streaming-session speedup vs evidence overlap (writes "
         "BENCH_sessions.json)",
    path="BENCH_sessions.json",
    schema="fastbni-bench-sessions-v1",
    flags=_flags("diabetes", "0.5,0.75,0.9", 80),
    run=run_sessions,
    render=lambda report: _render(
        report, "streaming sessions", SESSIONS_KEYS, ("cold ms", "sess ms"),
        "(cold = one full two-phase calibration per step; sess = "
        "session_open + update-with-targets per step)"),
    check_flag="--sessions-fresh",
    gates=(
        # The headline regime; a ratio of two runs on the same machine.
        Gate("rows[overlap=0.75].speedup", ">=", 5.0),
        Gate("rows[*].max_abs_diff", "<=", 1e-12),
    ),
)
