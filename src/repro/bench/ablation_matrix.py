"""Service-level ablation matrix: does every component earn its keep?

The stack has accumulated load-bearing machinery — fused kernels, the
two-tier cache, batcher coalescing, planner routing, warm session
deltas.  Each landed with its own benchmark, but nothing proves they
still pull their weight *together* under mixed traffic, and nothing
catches a PR that quietly erases one contribution while the others mask
the regression.  This harness is that proof:

* one seeded :class:`~repro.bench.traffic.TrafficTrace` (or a recorded
  one) is replayed against a **baseline** server and one
  **component-off** variant per entry in :data:`COMPONENTS` — the same
  requests, byte for byte;
* every server lives simultaneously in one event loop and replay slices
  alternate between them with order reversing per round
  (:mod:`repro.bench.harness`), so an external CPU burst cannot elect a
  winner;
* round 1 is **included** in the timing: a component whose value is
  avoiding cold costs (the planner routing a dense network away from an
  exact compile) earns its contribution there, and warm rounds then
  measure the steady state.  Process-global cold costs (imports, numpy
  warm-up, page cache) are burned off first by one throwaway slice
  against a scratch server that is never measured, so they cannot tax
  whichever measured slice runs first;
* answers for deterministic events (``check=True``: explicit-exact
  queries, session reads) must agree with the baseline to ≤1e-9 —
  turning a component off may change *when* work happens, never *what*
  the service answers;
* the report ranks components by throughput contribution:
  ``rps_ratio`` is the **mean of per-round paired ratios**
  (``variant_round_elapsed / baseline_round_elapsed``), so slow machine
  drift between rounds cancels inside each pair while round 1's cold
  costs keep their honest 1/repeats weight; 1.30 reads "removing this
  costs 30% throughput on this traffic".

``fastbni ablate`` writes ``BENCH_ablation.json``;
``tools/check_bench.py --ablation`` holds it to :data:`SPEC`'s gate rows
in CI, against the committed report, so an erased contribution fails the
build.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.bench.artifact import Artifact, Flag, Gate
from repro.bench.harness import live_servers, paired_ratios, replay_rounds
from repro.bench.traffic import (TRACE_FLAGS, TrafficTrace, generate_trace,
                                 generator_kwargs, load_trace)
from repro.errors import QueryError

SCHEMA = "fastbni-bench-ablation-v1"

#: Components under ablation: name -> (what the switch does, the server
#: kwargs that turn the component OFF).  Baseline gets none of these.
COMPONENTS: dict[str, dict] = {
    "fused_kernels": {
        "description": "flat-arena fused kernel backend (off = numpy "
                       "reference kernels)",
        "off": {"kernels": "numpy"},
    },
    "native_kernels": {
        "description": "native C kernel backend: whole calibrations as "
                       "GIL-free foreign calls (off = fused Python "
                       "kernels)",
        "off": {"kernels": "fused"},
    },
    "cache": {
        "description": "two-tier incremental cache: calibrated-state LRU "
                       "+ result memo (off = every query recalibrates)",
        "off": {"cache": False},
    },
    "batcher": {
        "description": "micro-batch coalescing of concurrent queries "
                       "(off = max_batch=1, every query its own flush)",
        "off": {"max_batch": 1},
    },
    "planner": {
        "description": "exact/approx cost routing (off = policy='exact', "
                       "dense networks pay full compiles)",
        "off": {"policy": "exact"},
    },
    "sessions_warm": {
        "description": "warm per-session incremental deltas (off = every "
                       "session op rebuilds state from scratch)",
        "off": {"session_cold": True},
    },
}

DEFAULT_REPEATS = 3
DEFAULT_CONCURRENCY = 8
#: Dense networks must overflow this so baseline auto-routing sends them
#: to sampling while the planner-off variant pays the exact compile.
DEFAULT_MAX_EXACT_BYTES = 2 * 1024 * 1024
#: Shared server posture (identical across all variants).  Baseline runs
#: the native kernel backend so the ``native_kernels`` row measures its
#: contribution; on toolchain-less machines native degrades to fused and
#: the report's ``native`` field records it (the gate then exempts the
#: row instead of failing on an off-variant identical to baseline).
BASE_SERVER = {"max_batch": 32, "kernels": "native"}

AGREEMENT_TOLERANCE = 1e-9


# ------------------------------------------------------------------ answers
def _answer_diff(base: dict, other: dict) -> float:
    """Max abs difference between two answer payloads (inf on shape
    mismatch — a missing target is a disagreement, not a pass)."""
    worst = 0.0
    base_post = base.get("posteriors") or {}
    other_post = other.get("posteriors") or {}
    if set(base_post) != set(other_post):
        return float("inf")
    for var, dist in base_post.items():
        a = np.asarray(dist, dtype=float)
        b = np.asarray(other_post[var], dtype=float)
        if a.shape != b.shape:
            return float("inf")
        worst = max(worst, float(np.max(np.abs(a - b))) if a.size else 0.0)
    le_a, le_b = base.get("log_evidence"), other.get("log_evidence")
    if (le_a is None) != (le_b is None):
        return float("inf")
    if le_a is not None:
        worst = max(worst, abs(float(le_a) - float(le_b)))
    return worst


def _agreement(baseline_answers: dict[int, dict],
               variant_answers: dict[int, dict]) -> dict:
    """Compare deterministic answers event-by-event against baseline."""
    shared = sorted(set(baseline_answers) & set(variant_answers))
    missing = len(set(baseline_answers) ^ set(variant_answers))
    worst = 0.0
    mismatched = 0
    for idx in shared:
        diff = _answer_diff(baseline_answers[idx], variant_answers[idx])
        worst = max(worst, diff)
        if diff > AGREEMENT_TOLERANCE:
            mismatched += 1
    return {
        "checked": len(shared),
        "missing": missing,
        "mismatched": mismatched,
        "max_abs_diff": worst if shared else float("inf"),
    }


# -------------------------------------------------------------------- sweep
async def _sweep(trace: TrafficTrace, components: list[str], *,
                 repeats: int, concurrency: int,
                 max_exact_bytes: int) -> dict[str, dict]:
    """Returns per-variant ``{"elapsed": [...], "requests": n,
    "latencies": [...], "answers": {...}, "errors": n}``."""
    nets = trace.build_networks()
    base = {**BASE_SERVER, "max_exact_bytes": max_exact_bytes}
    # ``scratch`` (baseline config, never measured) takes the warm-up
    # slice, so process-globals — imports, numpy, thread pools, OS page
    # cache — do not land on whichever measured slice runs first while
    # the measured servers stay cold: round 1 still pays every
    # per-variant cost (compiles, first calibrations), which is part of
    # what some components exist to avoid.
    variants = {"scratch": base, "baseline": base}
    for name in components:
        variants[name] = {**base, **COMPONENTS[name]["off"]}

    def register(server) -> None:
        for net_name, net in nets.items():
            server.registry.register(net_name, net)

    async with live_servers(variants, register) as servers:
        ports = {name: server.port for name, server in servers.items()}
        scratch = {"scratch": ports.pop("scratch")}
        rounds = await replay_rounds(trace, ports, concurrency=concurrency,
                                     repeats=repeats, warmup=scratch)
    return {
        name: {"elapsed": [r.elapsed_s for r in replays],
               "requests": sum(r.requests for r in replays),
               "latencies": [ms for r in replays for ms in r.latencies_ms],
               "errors": sum(len(r.errors) for r in replays),
               # Deterministic answers are round-independent; keep the
               # last round's (warm everywhere, including the memo).
               "answers": replays[-1].answers}
        for name, replays in rounds.items()
    }


def run_ablation(trace: TrafficTrace | None = None, *,
                 components: list[str] | None = None,
                 seed: int = 2023, requests: int = 240,
                 network: str = "asia",
                 session_network: str | None = None,
                 repeats: int = DEFAULT_REPEATS,
                 concurrency: int = DEFAULT_CONCURRENCY,
                 max_exact_bytes: int = DEFAULT_MAX_EXACT_BYTES,
                 trace_kwargs: dict | None = None) -> dict:
    """Run the matrix; returns the JSON-ready ranked report.

    ``trace=None`` generates the default mixed trace from ``seed`` /
    ``requests``; pass a loaded/recorded trace to score real traffic.
    ``components`` defaults to the full :data:`COMPONENTS` matrix.
    """
    if components is None:
        components = list(COMPONENTS)
    unknown = [c for c in components if c not in COMPONENTS]
    if unknown:
        raise QueryError(
            f"unknown ablation components {unknown}; "
            f"known: {sorted(COMPONENTS)}")
    generated = trace is None
    if trace is None:
        trace = generate_trace(**{
            "seed": seed, "requests": requests, "network": network,
            "session_network": session_network, **(trace_kwargs or {})})

    results = asyncio.run(_sweep(trace, components, repeats=repeats,
                                 concurrency=concurrency,
                                 max_exact_bytes=max_exact_bytes))

    def summarize(slot: dict) -> dict:
        total = sum(slot["elapsed"])
        lat = np.asarray(slot["latencies"], dtype=float)
        return {
            "requests": slot["requests"],
            "elapsed_s": total,
            "rps": slot["requests"] / total if total > 0 else 0.0,
            "p50_ms": float(np.quantile(lat, 0.50)) if lat.size else 0.0,
            "p99_ms": float(np.quantile(lat, 0.99)) if lat.size else 0.0,
            "errors": slot["errors"],
            "round_elapsed_s": [round(e, 4) for e in slot["elapsed"]],
        }

    baseline = summarize(results["baseline"])
    baseline_answers = results["baseline"]["answers"]

    rows = []
    for name in components:
        slot = results[name]
        row = summarize(slot)
        row["component"] = name
        row["description"] = COMPONENTS[name]["description"]
        row["off_kwargs"] = COMPONENTS[name]["off"]
        # Paired per-round ratios: both slices of a pair ran within the
        # same round, so machine drift across the sweep cancels; the
        # mean (not median) keeps round 1's cold costs at 1/repeats
        # weight — avoided cold work is part of a contribution.
        pairs = paired_ratios(slot["elapsed"],
                              results["baseline"]["elapsed"])
        row["round_ratios"] = [round(r, 4) for r in pairs]
        row["rps_ratio"] = (float(np.mean(pairs)) if pairs
                            else float("inf"))
        row["p50_ratio"] = (row["p50_ms"] / baseline["p50_ms"]
                            if baseline["p50_ms"] > 0 else float("inf"))
        row["p99_ratio"] = (row["p99_ms"] / baseline["p99_ms"]
                            if baseline["p99_ms"] > 0 else float("inf"))
        row["agreement"] = _agreement(baseline_answers, slot["answers"])
        rows.append(row)
    rows.sort(key=lambda r: -r["rps_ratio"])
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank

    from repro.exec.native import native_status

    native_available, native_reason = native_status()
    return {
        "schema": SCHEMA,
        "seed": trace.seed,
        "native": {"available": native_available, "reason": native_reason},
        "config": {
            "repeats": repeats,
            "concurrency": concurrency,
            "max_exact_bytes": max_exact_bytes,
            "server": dict(BASE_SERVER),
            "components": list(components),
            "generated_trace": generated,
        },
        "trace": {
            "events": len(trace.events),
            "checked_events": sum(1 for e in trace.events
                                  if e.get("check")),
            "mix_counts": trace.mix_counts(),
            "networks": trace.networks,
            "trace_config": trace.config,
        },
        "baseline": baseline,
        "components": rows,
    }


# -------------------------------------------------------------------- report
def render_ablation(report: dict) -> str:
    base = report["baseline"]
    lines = [
        f"ablation matrix  schema={report['schema']}  "
        f"seed={report['seed']}  events={report['trace']['events']}  "
        f"repeats={report['config']['repeats']}",
        f"  baseline: {base['rps']:8.1f} req/s   "
        f"p50 {base['p50_ms']:7.2f} ms   p99 {base['p99_ms']:8.2f} ms",
        "",
        f"  {'rank':<5}{'component':<15}{'req/s':>9}{'x-off':>8}"
        f"{'p50 ms':>9}{'p99 ms':>10}{'agree<=1e-9':>13}",
    ]
    for row in report["components"]:
        agree = row["agreement"]
        ok = (agree["mismatched"] == 0 and agree["checked"] > 0
              and agree["max_abs_diff"] <= AGREEMENT_TOLERANCE)
        lines.append(
            f"  {row['rank']:<5}{row['component']:<15}"
            f"{row['rps']:>9.1f}{row['rps_ratio']:>7.2f}x"
            f"{row['p50_ms']:>9.2f}{row['p99_ms']:>10.2f}"
            f"{'yes' if ok else 'NO':>13}")
    lines.append("")
    lines.append("  x-off = mean per-round (component-off elapsed / "
                 "baseline elapsed): the component's contribution")
    return "\n".join(lines)


# --------------------------------------------------------------------- spec
#: Committed contributions at or above this ratio are guarded: the fresh
#: run must retain ``RETAIN_FRAC`` of the measured win.  A component
#: committed at 1.40x must stay >= 1.10x fresh — generous under CI noise,
#: a hard fail when a PR erases the contribution entirely (ratio ~1.0).
MIN_CONTRIBUTION = 1.15
RETAIN_FRAC = 0.25


def _vs_committed(fresh: dict, committed: dict) -> dict:
    """Components the committed artifact ranks, and the fraction of each
    guarded committed win that ``fresh`` (possibly a component subset: the
    CI smoke matrix) retains."""
    committed_ratio = {row["component"]: float(row["rps_ratio"])
                       for row in committed.get("components", [])}
    native = (fresh.get("native") or {}).get("available", True)
    retained = {}
    for row in fresh["components"]:
        name = row["component"]
        ratio = committed_ratio.get(name, 0.0)
        # Toolchain-less runner: native fell back to fused, so the
        # off-variant equals the baseline and there is nothing to retain.
        if ratio >= MIN_CONTRIBUTION and (native or name != "native_kernels"):
            retained[name] = (float(row["rps_ratio"]) - 1.0) / (ratio - 1.0)
    return {"ranked": len(committed_ratio), "retained": retained}


def _components(raw: str) -> list[str] | None:
    components = [c.strip() for c in raw.split(",") if c.strip()]
    unknown = [c for c in components if c not in COMPONENTS]
    if unknown:
        raise SystemExit(f"error: unknown components {unknown}; "
                         f"known: {sorted(COMPONENTS)}")
    return components or None


def _run_flags(*, trace: str, components, repeats: int, concurrency: int,
               max_exact_bytes: int, **generator_flags) -> dict:
    return run_ablation(load_trace(trace) if trace else None,
                        components=components, repeats=repeats,
                        concurrency=concurrency,
                        max_exact_bytes=max_exact_bytes,
                        trace_kwargs=generator_kwargs(**generator_flags))


SPEC = Artifact(
    name="ablate",
    help="ablation matrix: replay one trace against a baseline server and "
         "one-component-off variants, rank contributions (writes "
         "BENCH_ablation.json)",
    path="BENCH_ablation.json",
    schema=SCHEMA,
    flags=(
        Flag("--trace", "", "traffic trace JSON to replay (default: "
                            "generate from the flags below)"),
        *TRACE_FLAGS,
        Flag("--components", "", "comma-separated components to ablate "
                                 "(default: all)", parse=_components),
        Flag("--repeats", DEFAULT_REPEATS,
             "counterbalanced replay rounds (round 1's cold costs are "
             "counted on purpose)"),
        Flag("--concurrency", DEFAULT_CONCURRENCY,
             "concurrent closed-loop connections per replay"),
        Flag("--max-exact-mb", DEFAULT_MAX_EXACT_BYTES / 2 ** 20,
             "auto-routing byte threshold shared by every variant (dense "
             "trace networks should overflow it)",
             kwarg="max_exact_bytes", parse=lambda mb: int(mb * 2 ** 20)),
    ),
    run=_run_flags,
    render=render_ablation,
    check_flag="--ablation",
    baseline_flag="--ablation-baseline",
    compare=_vs_committed,
    gates=(
        Gate("components[rank=1].rps_ratio", ">", 0.0),  # ranks something
        # Turning a component off may change *when* work happens, never
        # *what* the service answers — over at least one checked event.
        Gate("components[*].agreement.checked", ">", 0),
        Gate("components[*].agreement.max_abs_diff", "<=",
             AGREEMENT_TOLERANCE),
        Gate("components[*].agreement.mismatched", "<=", 0),
        Gate("components[*].errors", "<=", 0),
        Gate("baseline.errors", "<=", 0),
        # The committed matrix ranks at least five components, and no
        # guarded contribution has been erased.
        Gate("vs_baseline.ranked", ">=", 5),
        Gate("vs_baseline.retained[*]", ">=", RETAIN_FRAC),
    ),
)
