"""The paper's Table 1: execution time of every engine on every analog.

For each network it measures per-case inference time of the sequential
implementations (UnBBayes-style, Fast-BNI-seq, Element) and of the
parallel ones (Direct, Primitive, Fast-BNI-par) — the parallel ones at
their best thread count over the ``--threads`` sweep, the paper's
methodology — then prints the paper's columns: times plus the Fast-BNI
speedup over each comparator, beside the paper's own row.

Totals are extrapolated to the paper's 2000-case batch from per-case means
(the paper's numbers are batch totals; compile is excluded, shared across
the batch the way FastBN amortises it).  Workloads are deterministic per
(network, case count).

``fastbni table1`` writes ``BENCH_table1.json``.  Its one gate row is the
sequential speedup: both engines run single-threaded, so the ratio holds
on any machine, and the floor is the paper's smallest (munin2).  The
parallel columns need cores to mean anything; they are rendered but not
gated, and on fewer than 4 cores the render says they are unproven.
"""

from __future__ import annotations

import os
import platform
from typing import Callable, NamedTuple

from repro.baselines.direct import DirectEngine
from repro.baselines.element import ElementEngine
from repro.baselines.primitive import PrimitiveEngine
from repro.baselines.unbbayes import UnBBayesEngine
from repro.bench.artifact import Artifact, Flag, Gate, csv_of
from repro.bn.network import BayesianNetwork
from repro.bn.repository import PAPER_NETWORKS, load_network, network_spec
from repro.bn.sampling import TestCase, generate_test_cases
from repro.core import FastBNI
from repro.utils.timing import Timer, TimingStats

SCHEMA = "fastbni-bench-table1-v1"

# ------------------------------------------------------------------ workload
#: The paper's workload parameters.
PAPER_CASES = 2000
OBSERVED_FRACTION = 0.2

#: Laptop-feasible default case counts (per-case times are what we report).
DEFAULT_CASES = {
    "hailfinder": 20,
    "pathfinder": 10,
    "diabetes": 5,
    "pigs": 5,
    "munin2": 3,
    "munin4": 3,
}


class Workload(NamedTuple):
    net: BayesianNetwork
    cases: list[TestCase]


def build_workload(name: str, num_cases: int | None = None,
                   seed: int = 2023) -> Workload:
    """The deterministic bench-scale workload for one paper network."""
    net = load_network(name)
    n = num_cases if num_cases is not None else DEFAULT_CASES.get(name, 5)
    cases = generate_test_cases(net, n, observed_fraction=OBSERVED_FRACTION,
                                rng=seed + network_spec(name).seed)
    return Workload(net, cases)


# ------------------------------------------------------------------- engines
EngineFactory = Callable[[BayesianNetwork, int], object]


def _dispatch(num_workers: int) -> str:
    return "serial" if num_workers == 1 else "thread"


#: Table-1 columns, as ``(net, num_workers) -> engine``.  Sequential
#: engines ignore ``num_workers``.
ENGINE_FACTORIES: dict[str, EngineFactory] = {
    "unbbayes": lambda net, _t: UnBBayesEngine(net),
    "fastbni-seq": lambda net, _t: FastBNI(net, mode="seq"),
    "element": lambda net, _t: ElementEngine(net),
    "direct": lambda net, t: DirectEngine(
        net, backend=_dispatch(t), num_workers=t),
    "primitive": lambda net, t: PrimitiveEngine(
        net, backend=_dispatch(t), num_workers=t),
    "fastbni-par": lambda net, t: FastBNI(
        net, mode="hybrid", backend=_dispatch(t), num_workers=t),
}

SEQUENTIAL_ENGINES = ("unbbayes", "fastbni-seq", "element")
PARALLEL_ENGINES = ("direct", "primitive", "fastbni-par")


def make_engine(kind: str, net: BayesianNetwork, num_workers: int = 1):
    """Construct a registered engine by Table-1 column name."""
    try:
        factory = ENGINE_FACTORIES[kind]
    except KeyError:
        raise KeyError(f"unknown engine {kind!r}; available: "
                       f"{sorted(ENGINE_FACTORIES)}") from None
    return factory(net, num_workers)


def time_engine(engine, cases: list[TestCase],
                max_cases: int | None = None) -> TimingStats:
    """Per-case inference wall times for an already-constructed engine."""
    stats = TimingStats()
    for case in cases if max_cases is None else cases[:max_cases]:
        with Timer() as t:
            engine.infer(case.evidence)
        stats.add(t.elapsed)
    return stats


def run_engine(kind: str, net: BayesianNetwork, cases: list[TestCase],
               num_workers: int = 1,
               max_cases: int | None = None) -> TimingStats:
    """Construct, time and tear down one engine configuration."""
    engine = make_engine(kind, net, num_workers)
    try:
        return time_engine(engine, cases, max_cases=max_cases)
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


def best_of_threads(kind: str, net: BayesianNetwork, cases: list[TestCase],
                    sweep: tuple[int, ...]
                    ) -> tuple[int, TimingStats, dict[int, float]]:
    """Sweep the thread count and keep the fastest configuration.

    Returns ``(best_t, stats at best_t, {t: mean seconds})``.
    """
    results = {t: run_engine(kind, net, cases, num_workers=t) for t in sweep}
    best_t = min(results, key=lambda t: results[t].mean)
    return best_t, results[best_t], {t: s.mean for t, s in results.items()}


# ---------------------------------------------------------------------- rows
#: Paper Table 1: 2000-case batch totals in seconds, and the sequential
#: speedup, per network.
PAPER_COLUMNS = ("unbbayes", "fastbni-seq", "seq_speedup", "direct",
                 "primitive", "element", "fastbni-par")
PAPER_TABLE1 = {
    "hailfinder": (28.3, 4.0, 7.1, 3.0, 3.2, 4.0, 2.5),
    "pathfinder": (319.2, 68.9, 4.6, 40.5, 23.6, 27.8, 11.1),
    "diabetes": (90961, 6944, 13.1, 3016, 2311, 3316, 558.6),
    "pigs": (43714, 3729, 11.7, 3353, 1068, 2380, 221.7),
    "munin2": (3054, 2643, 1.2, 1951, 934.7, 1638, 241.7),
    "munin4": (258194, 34198, 7.6, 20364, 10348, 21398, 3021),
}

#: The gated floor: the paper's smallest sequential speedup (munin2).
MIN_SEQ_SPEEDUP = min(row[2] for row in PAPER_TABLE1.values())


def table1_row(network: str, per_case_s: dict[str, float],
               best_t: dict[str, int], cases: int) -> dict:
    """One report row: measured per-case means, the Fast-BNI speedups
    derived from them, and the paper's row for the same network."""
    par = per_case_s["fastbni-par"]
    return {
        "network": network,
        "cases": cases,
        "per_case_s": per_case_s,
        "best_t": best_t,
        "seq_speedup": per_case_s["unbbayes"] / per_case_s["fastbni-seq"],
        "par_speedup": {kind: per_case_s[kind] / par
                        for kind in ("direct", "primitive", "element")},
        "paper": dict(zip(PAPER_COLUMNS, PAPER_TABLE1[network])),
    }


#: The UnBBayes-style baseline is orders of magnitude slower, so it runs
#: on this many cases only (its per-case mean is still representative:
#: case-to-case variance is small because the table shapes are fixed).
UNBBAYES_CASES = 2


def run_network(name: str, num_cases: int | None,
                sweep: tuple[int, ...]) -> dict:
    """Measure every Table-1 engine on one network."""
    net, cases = build_workload(name, num_cases)
    per_case = {
        kind: run_engine(kind, net, cases, max_cases=(
            UNBBAYES_CASES if kind == "unbbayes" else None)).mean
        for kind in SEQUENTIAL_ENGINES}
    best_t = {}
    for kind in PARALLEL_ENGINES:
        best_t[kind], stats, _ = best_of_threads(kind, net, cases, sweep)
        per_case[kind] = stats.mean
    return table1_row(name, per_case, best_t, len(cases))


def run_table1(networks: tuple[str, ...] = PAPER_NETWORKS,
               num_cases: int | None = None,
               sweep: tuple[int, ...] = (1, 2, 4, 8)) -> dict:
    """Run the Table-1 sweep; prints progress per network."""
    rows = []
    for name in networks:
        print(f"[table1] running {name} ...", flush=True)
        rows.append(run_network(name, num_cases, sweep))
    return {
        "schema": SCHEMA,
        "threads": list(sweep),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "rows": rows,
    }


# -------------------------------------------------------------------- render
def format_table(headers: list[str], rows: list[list[str]],
                 title: str | None = None) -> str:
    """Monospace table with right-aligned numeric columns."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: list[str]) -> str:
        return "  ".join(c.rjust(w) if i else c.ljust(w)
                         for i, (c, w) in enumerate(zip(cells, widths)))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in rows)
    return "\n".join(lines)


def fmt_seconds(seconds: float) -> str:
    """Human-scaled duration."""
    if seconds != seconds:  # NaN
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120:
        return f"{seconds:.2f}s"
    return f"{seconds / 60:.1f}min"


def fmt_speedup(x: float) -> str:
    """Format a speedup ratio as e.g. ``2.5x`` (NaN → ``-``)."""
    if x != x:
        return "-"
    return f"{x:.1f}x"


def render_rows(rows: list[dict], batch: int = PAPER_CASES) -> str:
    """Render report rows in the paper's Table-1 layout."""
    headers = [
        "BN", "UnBBayes", "FastBNI-seq", "Speedup", "(paper)",
        "Dir.", "Prim.", "Elem.", "FastBNI-par",
        "vs Dir.", "vs Prim.", "vs Elem.", "best t",
    ]
    out_rows = []
    for r in rows:
        t, par = r["per_case_s"], r["par_speedup"]
        out_rows.append([
            r["network"],
            *(fmt_seconds(t[kind] * batch)
              for kind in ("unbbayes", "fastbni-seq")),
            fmt_speedup(r["seq_speedup"]),
            fmt_speedup(r["paper"]["seq_speedup"]),
            *(fmt_seconds(t[kind] * batch)
              for kind in ("direct", "primitive", "element", "fastbni-par")),
            *(fmt_speedup(par[kind])
              for kind in ("direct", "primitive", "element")),
            str(r["best_t"].get("fastbni-par", "-")),
        ])
    return format_table(
        headers, out_rows,
        title=f"Table 1 (measured; totals extrapolated to {batch} cases)",
    )


def render_table1(report: dict) -> str:
    text = render_rows(report["rows"])
    if report["cpu_count"] < 4:
        text += (f"\nnote: the parallel columns are unproven on < 4 cores "
                 f"({report['cpu_count']} here) and not gated; only the "
                 f"sequential speedup is (>= {MIN_SEQ_SPEEDUP}x)")
    return text


# ---------------------------------------------------------------------- spec
def _networks(names: list[str] | None) -> tuple[str, ...]:
    unknown = sorted(set(names or ()) - set(PAPER_NETWORKS))
    if unknown:
        raise SystemExit(f"error: unknown networks {unknown}; "
                         f"choose from {list(PAPER_NETWORKS)}")
    return tuple(names or PAPER_NETWORKS)


SPEC = Artifact(
    name="table1",
    help="reproduce the paper's Table 1 (writes BENCH_table1.json)",
    path="BENCH_table1.json",
    schema=SCHEMA,
    flags=(
        Flag("--networks", None, "paper networks to run (default: all six)",
             nargs="*", parse=_networks),
        Flag("--cases", None,
             "test cases per network (default: per-network preset)",
             kwarg="num_cases",
             parse=lambda raw: None if raw is None else int(raw)),
        Flag("--threads", "1,2,4,8",
             "comma-separated thread sweep (paper: 1..32)", kwarg="sweep",
             parse=csv_of(int)),
    ),
    run=run_table1,
    render=render_table1,
    check_flag="--table1",
    gates=(
        # Both engines are single-threaded: a ratio that holds on any box.
        Gate("rows[*].seq_speedup", ">=", MIN_SEQ_SPEEDUP),
    ),
)
