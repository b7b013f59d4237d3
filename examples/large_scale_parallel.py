#!/usr/bin/env python3
"""Large-scale parallel inference: the paper's Munin-style workload.

Runs Fast-BNI on the munin2 analog (1003 nodes, ~860 cliques) and shows
what the paper's §3 reports: the engine-mode comparison, the effect of the
thread count, and the junction-tree statistics that drive them.

Run:  python examples/large_scale_parallel.py
"""

import time

from repro import FastBNI, generate_test_cases, load_network


def time_engine(engine, cases) -> float:
    start = time.perf_counter()
    for case in cases:
        engine.infer(case.evidence)
    return (time.perf_counter() - start) / len(cases)


def main() -> None:
    print("Building the munin2 structural analog (1003 nodes)...")
    net = load_network("munin2")
    print(net.summary())

    cases = generate_test_cases(net, 2, observed_fraction=0.2, rng=1)

    print("\n=== Junction-tree statistics ===")
    with FastBNI(net, mode="seq") as engine:
        for key, value in engine.stats().items():
            print(f"  {key}: {value}")
        seq_time = time_engine(engine, cases)
    print(f"\nFast-BNI-seq: {seq_time:.3f} s/case")

    print("\n=== Parallel granularities (t=8) ===")
    for mode in ("inter", "intra", "hybrid"):
        with FastBNI(net, mode=mode, num_workers=8) as engine:
            t = time_engine(engine, cases)
        print(f"  {mode:7s}: {t:.3f} s/case  ({seq_time / t:.2f}x vs seq)")

    print("\n=== Thread sweep for the hybrid engine (paper Fig A) ===")
    for t in (1, 2, 4, 8, 16):  # one worker runs inline, more on threads
        with FastBNI(net, mode="hybrid", num_workers=t) as engine:
            per_case = time_engine(engine, cases)
        print(f"  t={t:2d}: {per_case:.3f} s/case")

    # ------------------------------------------------------ Batched inference
    # The paper's real workload is *many* cases over one compiled tree.
    # Instead of one call per case, infer_cases hands the whole batch to
    # the kernels at once: on native, one foreign call per case block
    # (table-major for small plans); on numpy, all cases stacked into
    # (N, table) arrays and calibrated in ONE pass of the layer schedule.
    # Case blocks then parallelise across the engine's workers as a single
    # dispatch.
    print("\n=== Batched inference: one calibration pass for the whole batch ===")
    batch_cases = generate_test_cases(net, 16, observed_fraction=0.2, rng=2)
    with FastBNI(net, mode="seq") as engine:
        start = time.perf_counter()
        for case in batch_cases:  # per-case loop
            engine.infer(case.evidence)
        loop_time = time.perf_counter() - start
        start = time.perf_counter()
        result = engine.infer_cases(batch_cases)  # vectorised case axis
        vec_time = time.perf_counter() - start
    print(f"  per-case loop : {loop_time / len(batch_cases):.4f} s/case")
    print(f"  vectorised    : {vec_time / len(batch_cases):.4f} s/case "
          f"({loop_time / vec_time:.2f}x)")
    print(f"  log P(e) of the batch: {result.log_evidence.round(2)}")

    print("\nPosterior check: one query on the calibrated tree")
    with FastBNI(net, mode="hybrid", num_workers=8) as engine:
        result = engine.infer(cases[0].evidence)
        name = next(n for n in net.variable_names if n not in cases[0].evidence)
        print(f"  P({name} | e) = {result.posteriors[name].round(4)}")
        print(f"  log P(e) = {result.log_evidence:.2f}")


if __name__ == "__main__":
    main()
