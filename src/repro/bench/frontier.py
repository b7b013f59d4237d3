"""Exact-vs-approx accuracy/latency frontier.

For each network the exact junction-tree engine gives the ground-truth
posteriors and its per-query latency; the sampling engine is then run at a
sweep of fixed particle counts, recording latency, worst/mean absolute
posterior error over all variables, mean reported standard error and
effective sample size.  The result is the *frontier* a deployment actually
navigates: how many particles buy how much accuracy, and where the exact
engine (when affordable) dominates outright.

``python -m repro.cli frontier`` renders the table and writes the
machine-readable ``BENCH_approx.json`` next to the repo root so the
approximate-engine trajectory accumulates across PRs (the CI workflow
uploads it as an artifact).
"""

from __future__ import annotations

import sys
import time
from datetime import datetime, timezone

import numpy as np

from repro.bench.artifact import Artifact, Flag, csv_of

from repro.approx.engine import ApproxBNI
from repro.approx.planner import QueryPlanner
from repro.bn.repository import resolve_network
from repro.bn.sampling import generate_test_cases
from repro.core import FastBNI

DEFAULT_NETWORKS = ("asia", "cancer", "sprinkler")
DEFAULT_SAMPLE_COUNTS = (256, 1024, 4096)


def _error_stats(exact_posteriors, approx_result):
    """Worst/mean |approx − exact| over every variable state."""
    worst = 0.0
    total = 0.0
    count = 0
    for name, exact_p in exact_posteriors.items():
        diff = np.abs(approx_result.posteriors[name] - exact_p)
        worst = max(worst, float(diff.max()))
        total += float(diff.sum())
        count += diff.size
    return worst, total / max(count, 1)


def run_frontier(networks=DEFAULT_NETWORKS,
                 sample_counts=DEFAULT_SAMPLE_COUNTS,
                 num_cases: int = 8, seed: int = 2023) -> dict:
    """Sweep the frontier; ``results`` has one row per (network, engine
    point).

    ``num_cases`` seeded 20%-observed evidence cases are shared by every
    engine point of a network, so rows are directly comparable.
    """
    rows: list[dict] = []
    for network in networks or DEFAULT_NETWORKS:
        net = resolve_network(network)
        cases = [c.evidence for c in generate_test_cases(
            net, num_cases, observed_fraction=0.2, rng=seed)]
        estimate = QueryPlanner().plan(net).estimate

        with FastBNI(net, mode="seq") as exact_engine:
            start = time.perf_counter()
            exact = [exact_engine.infer(ev) for ev in cases]
            exact_ms = (time.perf_counter() - start) * 1e3 / len(cases)
        rows.append({
            "network": network,
            "engine": "exact",
            "latency_ms_per_case": exact_ms,
            "fill_in_width": estimate.width,
            "estimated_table_bytes": estimate.total_table_bytes,
        })

        for n in sample_counts:
            # Fixed budget (num_samples == max_samples): the frontier
            # measures each population size, not the adaptive policy.
            engine = ApproxBNI(net, num_samples=n, max_samples=n, seed=seed)
            start = time.perf_counter()
            results = [engine.infer(ev) for ev in cases]
            approx_ms = (time.perf_counter() - start) * 1e3 / len(cases)
            worst = 0.0
            mean_sum = 0.0
            for ex, ap in zip(exact, results):
                w, m = _error_stats(ex.posteriors, ap)
                worst = max(worst, w)
                mean_sum += m
            rows.append({
                "network": network,
                "engine": "approx",
                "num_samples": n,
                "latency_ms_per_case": approx_ms,
                "max_abs_error": worst,
                "mean_abs_error": mean_sum / len(cases),
                "mean_ess": float(np.mean([r.ess for r in results])),
                "mean_max_stderr": float(np.mean(
                    [r.max_stderr() for r in results])),
            })
    return {
        "benchmark": SCHEMA,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "results": rows,
    }


def render_frontier(report: dict) -> str:
    lines = [
        f"{'network':<12} {'engine':<8} {'samples':>8} {'ms/case':>9} "
        f"{'max err':>9} {'mean ess':>9}",
    ]
    for row in report["results"]:
        samples = str(row.get("num_samples", "-"))
        err = (f"{row['max_abs_error']:.4f}"
               if "max_abs_error" in row else "exact")
        ess = (f"{row['mean_ess']:.0f}" if "mean_ess" in row else "-")
        lines.append(
            f"{row['network']:<12} {row['engine']:<8} {samples:>8} "
            f"{row['latency_ms_per_case']:>9.2f} {err:>9} {ess:>9}")
    return "\n".join(lines)


SCHEMA = "exact_vs_approx_frontier"

#: Ungated: the frontier is a trajectory to read, not a floor to hold.
SPEC = Artifact(
    name="frontier",
    help="exact-vs-approx accuracy/latency frontier (writes "
         "BENCH_approx.json)",
    path="BENCH_approx.json",
    schema=SCHEMA,
    flags=(
        Flag("--networks", None,
             "networks to sweep (default: the bundled three)", nargs="*"),
        Flag("--samples", ",".join(map(str, DEFAULT_SAMPLE_COUNTS)),
             "comma-separated particle counts", kwarg="sample_counts",
             parse=csv_of(int)),
        Flag("--cases", 8, "seeded evidence cases per network",
             kwarg="num_cases"),
        Flag("--seed", 2023, "RNG seed of the evidence cases"),
    ),
    run=run_frontier,
    render=render_frontier,
)
