"""Observability-overhead benchmark: what does tracing cost?

An instrument that slows the hot path gets turned off and stays off, so
the tracing layer's contract is quantified, not asserted: this bench
drives the real server (in-process, loopback TCP, closed loop) through
four configurations of the same workload and reports throughput relative to a no-instrumentation
baseline:

* ``baseline``     — ``trace_sample_rate=0`` *and* ``trace_slow_log=0``:
  no trace context is ever allocated and the slow-query log never takes
  its lock.  The reference denominator.
* ``off``          — the shipped default: sampling off, slow-query log
  armed (one float comparison per request).  The ISSUE's ≤2% budget
  applies here.
* ``sampled_1pct`` — ``--trace-sample-rate 0.01``: every 100th request
  carries a full span tree through parse → registry → queue → cache →
  flush → serialize plus the kernel hooks.  Budgeted at ~10%.
* ``full``         — ``--trace-sample-rate 1.0``: every request traced.
  Reported for perspective, not guarded (it is a debugging posture).

The measurement discipline a 2% budget needs — all four servers live at
once, an untimed warm-up so every timed slice sees identically warm
caches, short ABBA-ordered slices, paired ratios against the same round's
baseline slice — is :mod:`repro.bench.harness`; reported throughput is
the aggregate over all slices.

The ``full`` server doubles as a coverage witness: the report records
how many traces were captured, that the slow log works, and the ratio of
(queue wait + cache lookup + execute + serialize) stage time to
end-to-end latency for traced requests — the decomposition-accounts-for-
the-latency property the acceptance test pins at ≥90%.

``fastbni obsbench`` renders the table and writes ``BENCH_obs.json``;
``tools/check_bench.py --obs`` holds it to :data:`SPEC`'s gate rows in CI.
"""

from __future__ import annotations

import asyncio

from repro.bench.artifact import Artifact, Flag, Gate
from repro.bench.harness import (balanced_median, elapsed_of, live_servers,
                                 paired_ratios, replay_rounds)
from repro.bench.traffic import TrafficTrace, query_trace
from repro.bn.repository import resolve_network
from repro.bn.sampling import generate_test_cases

SCHEMA = "fastbni-bench-obs-v1"

DEFAULT_NETWORK = "asia"
#: Requests per timing slice — short on purpose: an external CPU-steal
#: burst then corrupts a minority of paired ratios, which the median
#: discards.
DEFAULT_REQUESTS = 100
DEFAULT_CONCURRENCY = 8
#: Even on purpose: rounds alternate mode order (ABBA), so an even count
#: gives every mode each position equally often.
DEFAULT_REPEATS = 24

#: The four server configurations compared (name → server kwargs).
#: ``full`` drops the slow threshold to 0 so the benchmark's short
#: queries also exercise (and witness) the top-K slow-log bookkeeping;
#: ``off`` keeps the shipped 100 ms threshold — its per-request cost is
#: the float comparison, which is what the ≤2% budget is about.
MODES: dict[str, dict] = {
    "baseline": {"trace_sample_rate": 0.0, "trace_slow_log": 0},
    "off": {},
    "sampled_1pct": {"trace_sample_rate": 0.01},
    # trace_buffer covers warm-up + every timed slice so the early
    # (cache-cold, engine-executing) traces survive for the witness.
    "full": {"trace_sample_rate": 1.0, "trace_slow_ms": 0.0,
             "trace_buffer": 8192},
}

#: Root-child stages whose summed duration should account for a traced
#: request's latency (compile time hides in registry_lookup, so the
#: witness only considers warm traces that actually executed).
WITNESS_STAGES = ("queue_wait", "cache_lookup", "execute", "serialize")


async def _sweep(trace: TrafficTrace, concurrency: int, repeats: int,
                 server_kwargs: dict) -> tuple[dict, dict, list]:
    """Returns (per-mode elapsed lists, per-mode tracer stats, the full
    server's buffered traces)."""
    network, = trace.networks
    variants = {mode: {**server_kwargs, **kwargs}
                for mode, kwargs in MODES.items()}
    async with live_servers(variants,
                            lambda s: s.preload([network])) as servers:
        elapsed = elapsed_of(await replay_rounds(
            trace, {mode: s.port for mode, s in servers.items()},
            concurrency=concurrency, repeats=repeats))
        stats: dict[str, dict] = {}
        for mode, server in servers.items():
            stats[mode] = server.tracer.stats()
            stats[mode]["slow_queries"] = len(server.tracer.slow_queries())
        return elapsed, stats, servers["full"].tracer.traces()


def _witness(traces: list[dict]) -> dict:
    """Stage-decomposition coverage over the ``full`` server's traces.

    For every warm trace (one that reached the engine — it has an
    ``execute`` span), sum the root-child stage durations and divide by
    the request's end-to-end latency.  Near 1.0 means the span tree
    explains where the time went; the acceptance test requires ≥0.9.
    """
    ratios = []
    span_names: set[str] = set()
    for trace in traces:
        names = {s["name"] for s in trace["spans"]}
        span_names |= names
        latency = trace["spans"][0]["attributes"].get("latency_ms", 0.0)
        if "execute" not in names or latency <= 0:
            continue
        total = sum(s["duration_ms"] for s in trace["spans"]
                    if s["name"] in WITNESS_STAGES)
        ratios.append(total / latency)
    ratios.sort()
    return {
        "traced_requests": len(traces),
        "executed_traces": len(ratios),
        "span_names": sorted(span_names),
        "stage_sum_ratio_median": (ratios[len(ratios) // 2]
                                   if ratios else None),
        "stage_sum_ratio_max": (ratios[-1] if ratios else None),
    }


def run_obs(network: str = DEFAULT_NETWORK,
            requests: int = DEFAULT_REQUESTS,
            concurrency: int = DEFAULT_CONCURRENCY,
            repeats: int = DEFAULT_REPEATS,
            seed: int = 2023, *, max_batch: int = 32) -> dict:
    """Run the four-mode sweep; returns the JSON-ready report dict.

    All modes run as live servers in one process over the *same* seeded
    case list; timing slices alternate between them (order reversing per
    round), throughput is aggregate over slices, and overhead is the
    median per-round paired ratio against the baseline slice.
    """
    trace = query_trace(network, generate_test_cases(
        resolve_network(network), requests, observed_fraction=0.2, rng=seed))
    elapsed, stats, traces = asyncio.run(_sweep(
        trace, concurrency, repeats, {"max_batch": max_batch}))
    witness = _witness(traces)

    modes = {}
    for mode, samples in elapsed.items():
        ratio = balanced_median(paired_ratios(samples, elapsed["baseline"]))
        modes[mode] = {
            "rps": repeats * requests / sum(samples),
            "rps_runs": [round(requests / e, 1) for e in samples],
            "overhead_pct": ((ratio - 1.0) * 100.0
                             if mode != "baseline" else 0.0),
            "tracing": stats[mode],
        }
    return {
        "schema": SCHEMA,
        "network": network,
        "config": {"requests": requests, "concurrency": concurrency,
                   "repeats": repeats, "seed": seed, "max_batch": max_batch},
        "modes": modes,
        "witness": witness,
    }


def render_obs(report: dict) -> str:
    """Fixed-width table of the sweep (the CLI's stdout)."""
    cfg = report["config"]
    lines = [
        f"observability overhead on {report['network']!r} "
        f"({cfg['requests']} requests/slice, concurrency "
        f"{cfg['concurrency']}, {cfg['repeats']} counterbalanced rounds)",
        f"{'mode':>14} {'req/s':>9} {'overhead':>9} {'sampled':>8} "
        f"{'slow log':>8}",
    ]
    for mode, row in report["modes"].items():
        tracing = row["tracing"]
        lines.append(
            f"{mode:>14} {row['rps']:>9.1f} {row['overhead_pct']:>8.2f}% "
            f"{tracing['traces_sampled']:>8} {tracing['slow_queries']:>8}"
        )
    witness = report.get("witness")
    if witness:
        median = witness["stage_sum_ratio_median"]
        lines.append(
            f"(full-trace witness: {witness['executed_traces']} engine-"
            f"executing traces, median stage-sum/latency "
            f"{median:.2f})" if median is not None else
            "(full-trace witness: no engine-executing traces captured)"
        )
    lines.append("(baseline = sampling off + slow log off; off = shipped "
                 "defaults; overhead vs baseline, median of "
                 "position-balanced paired ratios)")
    return "\n".join(lines)


#: Span names a full trace must cover (the server's request stages; the
#: engine-side stages only appear on requests the cache could not serve).
REQUIRED_SPANS = ("request", "parse", "registry_lookup", "queue_wait",
                  "cache_lookup", "execute", "serialize")

SPEC = Artifact(
    name="obsbench",
    help="observability-overhead benchmark: tracing off/sampled/full vs a "
         "no-instrumentation baseline (writes BENCH_obs.json)",
    path="BENCH_obs.json",
    schema=SCHEMA,
    flags=(
        Flag("--network", DEFAULT_NETWORK, "bundled/analog name or .bif path"),
        Flag("--requests", DEFAULT_REQUESTS,
             "closed-loop requests per mode per round"),
        Flag("--concurrency", DEFAULT_CONCURRENCY,
             "concurrent closed-loop client connections"),
        Flag("--repeats", DEFAULT_REPEATS,
             "interleaved counterbalanced timing rounds"),
        Flag("--seed", 2023, "RNG seed of the case list"),
    ),
    run=run_obs,
    render=render_obs,
    check_flag="--obs",
    gates=(
        # Throughput budgets (%) vs the bare baseline: the shipped
        # tracing-off defaults, and 1% sampling.
        Gate("modes.off.overhead_pct", "<=", 2.0),
        Gate("modes.sampled_1pct.overhead_pct", "<=", 10.0),
        # The instrument must demonstrably work, not just be cheap: the
        # full run sampled traces, filed slow-log entries (threshold 0
        # catches every request) and its kernel-hook spans fired.
        Gate("modes.full.tracing.traces_sampled", ">", 0),
        Gate("modes.full.tracing.slow_queries", ">", 0),
        Gate("witness.executed_traces", ">", 0),
        Gate("witness.span_names", "contains", REQUIRED_SPANS),
    ),
)
