"""Studies backing the paper's §2–§3 claims (Figs A–E in DESIGN.md).

Each function measures one claim and returns plain data; the CLI renders
them as tables.  All are deterministic given their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import fmt_seconds, format_table
from repro.bench.runner import run_engine
from repro.bench.workload import build_workload
from repro.bn.generators import balanced_tree_network, chain_network, grid_network, star_network
from repro.bn.network import BayesianNetwork
from repro.bn.repository import PAPER_NETWORKS
from repro.bn.sampling import generate_test_cases
from repro.core import FastBNI
from repro.jt.layers import compute_layers
from repro.jt.root import best_root_bruteforce, eccentricities, select_root
from repro.jt.structure import compile_junction_tree
from repro.utils.timing import TimingStats


# ------------------------------------------------------------- Fig A: scaling
def thread_scaling(
    network: str = "munin4",
    threads: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    num_cases: int | None = None,
    mode: str = "hybrid",
) -> dict[int, float]:
    """Per-case time of Fast-BNI-par as a function of the thread count t."""
    wl = build_workload(network, num_cases)
    engine_kind = {"hybrid": "fastbni-par", "inter": "fastbni-inter",
                   "intra": "fastbni-intra"}[mode]
    out: dict[int, float] = {}
    for t in threads:
        out[t] = run_engine(engine_kind, wl.net, wl.cases, num_workers=t).mean
    return out


def render_thread_scaling(results: dict[int, float], network: str) -> str:
    """Render the Fig-A sweep as a text table."""
    rows = [[str(t), fmt_seconds(s), f"{results[1] / s:.2f}x"]
            for t, s in sorted(results.items())]
    return format_table(["t", "per-case", "speedup vs t=1"], rows,
                        title=f"Fig A: thread scaling on {network}")


# -------------------------------------------------------- Fig B: granularity
@dataclass(frozen=True)
class GranularityResult:
    structure: str
    num_cliques: int
    num_layers: int
    seq: float
    inter: float
    intra: float
    hybrid: float


def structure_networks(size: int = 120, card: int = 3) -> dict[str, BayesianNetwork]:
    """Three JT-structure extremes + a mixed grid (paper §1's argument)."""
    return {
        "chain (deep, small cliques)": chain_network(size, card=card, rng=0),
        "star (flat, many cliques)": star_network(size, card=card, hub_card=card, rng=0),
        "tree (balanced)": balanced_tree_network(6, 2, card=card, rng=0),
        "grid (few, large cliques)": grid_network(7, 24, card=2, rng=0),
    }


def granularity_study(
    num_workers: int = 8,
    num_cases: int = 5,
    seed: int = 11,
) -> list[GranularityResult]:
    """inter vs intra vs hybrid across JT structures (paper: only hybrid is
    competitive on all of them)."""
    results = []
    for label, net in structure_networks().items():
        cases = generate_test_cases(net, num_cases, 0.2, rng=seed)
        times: dict[str, float] = {}
        for mode in ("seq", "inter", "intra", "hybrid"):
            eng = FastBNI(net, mode=mode,
                          backend="serial" if mode == "seq" else "thread",
                          num_workers=num_workers)
            stats = TimingStats()
            try:
                for case in cases:
                    from repro.utils.timing import Timer

                    with Timer() as t:
                        eng.infer(case.evidence)
                    stats.add(t.elapsed)
            finally:
                eng.close()
            times[mode] = stats.mean
        tree = FastBNI(net, mode="seq").tree
        schedule = compute_layers(tree)
        results.append(GranularityResult(
            structure=label,
            num_cliques=tree.num_cliques,
            num_layers=schedule.num_layers,
            seq=times["seq"], inter=times["inter"],
            intra=times["intra"], hybrid=times["hybrid"],
        ))
    return results


def render_granularity(results: list[GranularityResult]) -> str:
    """Render the Fig-B study as a text table."""
    rows = [[r.structure, str(r.num_cliques), str(r.num_layers),
             fmt_seconds(r.seq), fmt_seconds(r.inter), fmt_seconds(r.intra),
             fmt_seconds(r.hybrid)]
            for r in results]
    return format_table(
        ["structure", "cliques", "layers", "seq", "inter", "intra", "hybrid"],
        rows, title="Fig B: parallel granularity vs junction-tree structure")


# ------------------------------------------------------ Fig C: root selection
@dataclass(frozen=True)
class RootResult:
    network: str
    layers_first: int
    layers_center: int
    layers_optimal: int
    time_first: float
    time_center: float


def root_selection_study(
    networks: tuple[str, ...] = PAPER_NETWORKS,
    num_cases: int = 2,
    num_workers: int = 4,
) -> list[RootResult]:
    """Layer counts and hybrid runtime with/without the paper's root selection."""
    out = []
    for name in networks:
        wl = build_workload(name, num_cases)
        tree = compile_junction_tree(wl.net)
        select_root(tree, "first")
        layers_first = compute_layers(tree).num_layers
        select_root(tree, "center")
        layers_center = compute_layers(tree).num_layers
        layers_optimal = 2 * min(eccentricities(tree)) + 1

        times = {}
        for strategy in ("first", "center"):
            eng = FastBNI(wl.net, mode="hybrid", backend="thread",
                          num_workers=num_workers, root_strategy=strategy)
            try:
                stats = TimingStats()
                from repro.utils.timing import Timer

                for case in wl.cases:
                    with Timer() as t:
                        eng.infer(case.evidence)
                    stats.add(t.elapsed)
                times[strategy] = stats.mean
            finally:
                eng.close()
        out.append(RootResult(
            network=name,
            layers_first=layers_first,
            layers_center=layers_center,
            layers_optimal=layers_optimal,
            time_first=times["first"],
            time_center=times["center"],
        ))
    return out


def render_root_selection(results: list[RootResult]) -> str:
    """Render the Fig-C study as a text table."""
    rows = [[r.network, str(r.layers_first), str(r.layers_center),
             str(r.layers_optimal), fmt_seconds(r.time_first),
             fmt_seconds(r.time_center),
             f"{r.time_first / r.time_center:.2f}x"]
            for r in results]
    return format_table(
        ["network", "layers(first)", "layers(center)", "layers(opt)",
         "time(first)", "time(center)", "gain"],
        rows, title="Fig C: root selection — layers and runtime")


# -------------------------------------------------- Fig E: overhead breakdown
def overhead_study(
    num_workers: int = 8,
    networks: tuple[str, ...] = PAPER_NETWORKS,
    num_cases: int | None = None,
) -> list[tuple[str, float, float, float]]:
    """Parallel benefit vs network scale: (network, seq, par, speedup).

    The paper observes that on small networks the parallelization overhead
    dominates (speedup < 1 is possible); on large ones Fast-BNI-par wins.
    """
    out = []
    for name in networks:
        wl = build_workload(name, num_cases)
        seq = run_engine("fastbni-seq", wl.net, wl.cases).mean
        par = run_engine("fastbni-par", wl.net, wl.cases, num_workers=num_workers).mean
        out.append((name, seq, par, seq / par))
    return out


def render_overhead(results: list[tuple[str, float, float, float]], num_workers: int) -> str:
    """Render the Fig-E study as a text table."""
    rows = [[n, fmt_seconds(s), fmt_seconds(p), f"{sp:.2f}x"]
            for n, s, p, sp in results]
    return format_table(
        ["network", "seq", f"par(t={num_workers})", "par speedup"],
        rows, title="Fig E: parallelization overhead vs network scale")


# ------------------------------------------- extension: triangulation study
def heuristic_study(
    networks: tuple[str, ...] = PAPER_NETWORKS,
) -> list[tuple[str, str, int, int, int]]:
    """Clique profile per triangulation heuristic (DESIGN.md extension).

    Returns (network, heuristic, #cliques, max clique entries, total
    entries) rows; total entries is the direct driver of calibration cost.
    """
    from repro.bn.repository import load_network
    from repro.graph.cliques import elimination_cliques
    from repro.graph.moralize import moralize
    from repro.graph.triangulate import HEURISTICS, triangulate

    rows = []
    for name in networks:
        net = load_network(name)
        adj = moralize(net)
        cards = {v.name: v.cardinality for v in net.variables}
        for heuristic in HEURISTICS:
            res = triangulate(adj, heuristic, cards)
            cliques = elimination_cliques(res.elimination_cliques)
            sizes = []
            for c in cliques:
                size = 1
                for v in c:
                    size *= cards[v]
                sizes.append(size)
            rows.append((name, heuristic, len(cliques), max(sizes), sum(sizes)))
    return rows


def render_heuristics(rows: list[tuple[str, str, int, int, int]]) -> str:
    """Render the heuristic study as a text table."""
    out = [[n, h, str(k), f"{mx:,}", f"{tot:,}"] for n, h, k, mx, tot in rows]
    return format_table(
        ["network", "heuristic", "cliques", "max entries", "total entries"],
        out, title="Extension: triangulation heuristic vs clique profile")


def root_center_is_optimal(network: str) -> bool:
    """Sanity helper: paper's center strategy reaches the optimal layer count."""
    wl = build_workload(network, 1)
    tree = compile_junction_tree(wl.net)
    select_root(tree, "center")
    via_center = tree.height()
    return via_center == min(eccentricities(tree)) and (
        tree.height() == eccentricities(tree)[best_root_bruteforce(tree)]
    )
