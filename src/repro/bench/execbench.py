"""Kernel-backend benchmark: fused vs numpy vs native over the shared plan.

Measures the unified execution layer's hot paths on one network
(default: the hailfinder analog at bench scale):

* **single-case calibration** (the headline row) — arena state + evidence
  absorption + one full message schedule per case, the path the paper's
  dispatch-frequency argument targets: the ``numpy`` backend re-pays
  NumPy's reduction/broadcast setup per table operation, the ``fused``
  backend executes each message as single scatter/gather passes through
  the plan's precompiled index maps, and the ``native`` backend runs the
  whole compiled schedule as **one GIL-free C call** per case;
* **full inference** — calibration plus the all-variables posterior read
  (shared plan geometry, backend-independent), for context;
* **batched calibration** — ``BatchedFastBNI.infer_cases`` over the whole
  case list in one schedule pass per backend;
* **thread scaling** (native only) — ``infer_cases`` on 1 vs 2 thread
  workers, where each worker's case block is one GIL-free foreign call,
  plus a **parallel-headroom probe** (two concurrent pure-C spins)
  recording how much parallelism the machine could express at all.
  Shared/stolen vCPUs and single-core boxes show probe values near 1.0x;
  the regression gate (``tools/check_bench.py``) enforces the scaling
  floor only when the probe shows the hardware can express it.

The ``native`` section records availability (and the reason when the
backend fell back, e.g. no C compiler), so gates can skip honestly
instead of failing on toolchain-less runners.  Every row cross-checks
posteriors between backends (``max_abs_diff`` must sit at float64
round-off) so the speedup numbers can never come from diverging answers.
``python -m repro.cli execbench`` renders the table and writes
``BENCH_exec.json``; ``tools/check_bench.py`` holds a fresh run to
:data:`SPEC`'s gate rows, against the committed artifact, in CI.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

from repro.bench.artifact import Artifact, Flag, Gate
from repro.bn.repository import resolve_network
from repro.bn.sampling import generate_test_cases
from repro.core import BatchedFastBNI, FastBNI
from repro.exec.kernels import KERNELS, get_kernels

#: Benchmark schema version (bumped when row keys change).
SCHEMA = 2

#: Cases per thread-scaling measurement (split across workers).
THREAD_SCALING_CASES = 160
#: Workers of the threaded measurement (the acceptance regime).
THREAD_SCALING_WORKERS = 2


def _best_of(repeats: int, fn) -> float:
    """Best wall-clock seconds of ``repeats`` runs (noise floor, not mean)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _max_posterior_diff(a, b, names) -> float:
    return max(
        float(np.max(np.abs(a.posteriors[name] - b.posteriors[name])))
        for name in names
    )


def _active_backends() -> tuple[list[str], dict]:
    """Registry backends that actually resolve to themselves here.

    ``native`` falls back to the fused singleton on toolchain-less
    machines; benchmarking the fallback would just duplicate the fused
    rows under a wrong label, so it is dropped and the reason recorded.
    """
    from repro.exec.native import native_status

    available, reason = native_status()
    backends = [k for k in KERNELS if k != "native" or available]
    native_info: dict = {"available": available, "reason": reason,
                         "library": None}
    if available:
        backend = get_kernels("native")
        if backend.name == "native":
            native_info["library"] = backend.library_path
        else:  # pragma: no cover - probe said yes but the build failed
            backends.remove("native")
            native_info.update(available=False,
                               reason="backend fell back to fused")
    return backends, native_info


def _gil_release_fraction(run_block, calls: int = 10) -> float:
    """Machine-independent witness that the native calls drop the GIL.

    A counter thread increments a Python int while the main thread makes
    ``calls`` whole-block foreign calls (``run_block``); the fraction is
    the counter's rate during those calls relative to its solo rate.
    With the GIL held through a call the counter cannot advance at all,
    so the fraction collapses to ~0 on *any* machine, single cores
    included — the regression gate for the GIL mechanism itself, where
    ``scaling`` is hardware-dependent and gated separately.
    """
    import threading

    count = [0]
    stop = threading.Event()

    def spin_counter() -> None:
        while not stop.is_set():
            count[0] += 1

    ticker = threading.Thread(target=spin_counter, daemon=True)
    ticker.start()
    try:
        time.sleep(0.05)  # let the counter reach steady state
        start_count = count[0]
        start = time.perf_counter()
        for _ in range(calls):
            run_block()
        elapsed = time.perf_counter() - start
        during = count[0] - start_count
        baseline_start = count[0]
        time.sleep(elapsed)
        solo = count[0] - baseline_start
    finally:
        stop.set()
        ticker.join()
    return during / solo if solo else 0.0


def _measure_thread_scaling(net, repeats: int) -> dict:
    """``infer_cases`` on 1 vs 2 thread workers under the native backend.

    Each worker's case block is one GIL-free ``fbni_infer_cases`` call,
    so on a machine with two free cores the blocks overlap.  The two
    arms are sampled in interleaved best-of rounds so a CPU-steal window
    cannot penalise one only.  Beside the ratio the row records the two
    witnesses ``tools/check_bench.py`` conditions on: the pure-ALU
    parallel-headroom probe (can this machine run two GIL-free C calls at
    once at all?) and the GIL-release fraction (does this *code path*
    drop the GIL?).
    """
    from repro.exec.native import probe_parallel_headroom

    cases = [{}] * THREAD_SCALING_CASES
    with BatchedFastBNI(net, mode="seq", kernels="native") as serial, \
            BatchedFastBNI(net, mode="hybrid", backend="thread",
                           num_workers=THREAD_SCALING_WORKERS,
                           kernels="native") as threaded:
        def timed(engine) -> float:
            start = time.perf_counter()
            engine.infer_cases(cases)
            return time.perf_counter() - start

        timed(serial); timed(threaded)  # lower the plan, warm pool + scratch
        serial_s = threaded_s = float("inf")
        for _ in range(max(repeats, 3) * 2):
            serial_s = min(serial_s, timed(serial))
            threaded_s = min(threaded_s, timed(threaded))
        plan, backend = serial.plan, serial.kernels
        headroom = probe_parallel_headroom(
            backend._lib, threads=THREAD_SCALING_WORKERS)
        matrix, read_ids = plan.evidence_matrix(cases), plan.variable_ids()
        gil_release = _gil_release_fraction(
            lambda: backend.infer_cases(plan, matrix, read_ids))
    return {
        "workers": THREAD_SCALING_WORKERS,
        "cases": THREAD_SCALING_CASES,
        "serial_ms": serial_s * 1e3,
        "threaded_ms": threaded_s * 1e3,
        "scaling": serial_s / threaded_s,
        "headroom": headroom,
        "gil_release": gil_release,
        "cpu_count": os.cpu_count(),
    }


def run_execbench(network: str = "hailfinder", num_cases: int = 24,
                  repeats: int = 3, seed: int = 2023) -> dict:
    """Time every kernel backend on ``network``; returns the report dict."""
    net = resolve_network(network)
    cases = [c.evidence for c in
             generate_test_cases(net, num_cases, observed_fraction=0.2,
                                 rng=seed)]
    names = tuple(net.variable_names)
    backends, native_info = _active_backends()

    rows: list[dict] = []
    single_ms: dict[str, float] = {}
    batch_ms: dict[str, float] = {}
    check_results: dict[str, object] = {}

    infer_ms: dict[str, float] = {}
    for kernels in backends:
        with FastBNI(net, mode="seq", kernels=kernels) as engine:
            engine.infer(cases[0])  # warm: plan, base tables, maps

            def calibrate_loop(engine=engine):
                from repro.exec.kernels import run_message_schedule

                for case in cases:
                    state = engine.plan.fresh_state()
                    engine.plan.absorb_hard_evidence(state, case)
                    run_message_schedule(engine.plan, state, engine.kernels)

            best = _best_of(repeats, calibrate_loop)
            single_ms[kernels] = best / len(cases) * 1e3
            rows.append({
                "path": "calibrate", "kernels": kernels,
                "cases": len(cases),
                "ms_per_case": single_ms[kernels],
            })

            def infer_loop(engine=engine):
                for case in cases:
                    engine.infer(case)

            best = _best_of(repeats, infer_loop)
            infer_ms[kernels] = best / len(cases) * 1e3
            check_results[f"single:{kernels}"] = engine.infer(cases[0])
            rows.append({
                "path": "infer", "kernels": kernels,
                "cases": len(cases),
                "ms_per_case": infer_ms[kernels],
            })

        with BatchedFastBNI(net, mode="seq", kernels=kernels) as engine:
            engine.prepare_baseline()
            engine.infer_cases(cases[:2])  # warm
            best = _best_of(repeats, lambda e=engine: e.infer_cases(cases))
            batch_ms[kernels] = best / len(cases) * 1e3
            check_results[f"batch:{kernels}"] = engine.infer_cases(cases).case(0)
            rows.append({
                "path": "batch", "kernels": kernels,
                "cases": len(cases),
                "ms_per_case": batch_ms[kernels],
            })

    # Backends must agree bit-for-bit (to float64 round-off) on every path.
    reference = check_results["single:fused"]
    max_diff = max(
        max(_max_posterior_diff(reference, check_results[f"single:{k}"],
                                names) for k in backends),
        max(_max_posterior_diff(check_results["batch:fused"],
                                check_results[f"batch:{k}"], names)
            for k in backends),
        _max_posterior_diff(reference, check_results["batch:fused"], names),
    )

    def summary(ms: dict[str, float]) -> dict:
        out = {
            "numpy_ms": ms["numpy"],
            "fused_ms": ms["fused"],
            "speedup_fused": ms["numpy"] / ms["fused"],
            "native_ms": ms.get("native"),
            "speedup_native": None,
        }
        if "native" in ms:
            out["speedup_native"] = ms["fused"] / ms["native"]
        return out

    thread_scaling: dict = {"skipped": native_info["reason"]}
    if "native" in backends:
        thread_scaling = _measure_thread_scaling(net, repeats)

    return {
        "schema": SCHEMA,
        "network": network,
        "num_cases": num_cases,
        "repeats": repeats,
        "seed": seed,
        "python": platform.python_version(),
        "rows": rows,
        "single_case": summary(single_ms),
        "full_infer": summary(infer_ms),
        "batch": summary(batch_ms),
        "native": native_info,
        "thread_scaling": thread_scaling,
        "max_abs_diff": max_diff,
    }


def render_execbench(report: dict) -> str:
    lines = [
        f"exec kernels on {report['network']} "
        f"({report['num_cases']} cases, best of {report['repeats']}):",
        f"  {'path':<8} {'kernels':<8} {'ms/case':>10}",
    ]
    for row in report["rows"]:
        lines.append(f"  {row['path']:<8} {row['kernels']:<8} "
                     f"{row['ms_per_case']:>10.3f}")
    lines.append(
        f"  fused speedup: {report['single_case']['speedup_fused']:.2f}x "
        f"single-case, {report['batch']['speedup_fused']:.2f}x batched "
        f"(max |diff| = {report['max_abs_diff']:.2e})"
    )
    native = report.get("native", {})
    if native.get("available"):
        single = report["single_case"]
        lines.append(
            f"  native speedup over fused: {single['speedup_native']:.2f}x "
            f"single-case ({native['library']})")
        scaling = report.get("thread_scaling", {})
        if "scaling" in scaling:
            lines.append(
                f"  thread scaling: {scaling['scaling']:.2f}x at "
                f"{scaling['workers']} workers over {scaling['cases']} "
                f"cases (headroom probe {scaling['headroom']:.2f}x on "
                f"{scaling['cpu_count']} cores, GIL-release fraction "
                f"{scaling['gil_release']:.2f})")
    else:
        lines.append(f"  native backend unavailable: {native.get('reason')}")
    return "\n".join(lines)


# --------------------------------------------------------------------- spec
def _vs_committed(fresh: dict, committed: dict) -> dict:
    """Each shared row's fresh/committed time over the median such ratio.

    CI machines differ from the one that committed the artifact; after the
    normalisation a uniformly slower machine passes and a single path
    regressing relative to its peers fails.
    """
    def times(report: dict) -> dict[str, float]:
        return {f"{row['path']}/{row['kernels']}": float(row["ms_per_case"])
                for row in report.get("rows", [])}

    new, old = times(fresh), times(committed)
    ratios = {key: new[key] / old[key] for key in sorted(new) if key in old}
    scale = statistics.median(ratios.values()) if ratios else 1.0
    return {"shared_rows": len(ratios), "machine_scale": scale,
            "relative": {key: r / scale for key, r in ratios.items()}}


def _no_native(report: dict) -> str | None:
    native = report.get("native")
    if native is None:
        return ("native gates skipped: report predates the native backend "
                "(schema 1)")
    if not native.get("available"):
        return ("native gates skipped: backend unavailable on this runner "
                f"({native.get('reason')})")
    return None


#: 2-worker scaling floor, owed by machines that can express it: 4+ cores
#: *and* a headroom probe above the floor.  Small/shared boxes (2 workers +
#: the dispatching thread on < 4 cores, SMT vCPUs where two memory-bound
#: kernel streams serialise) owe bounded threading overhead only — the
#: posture of the cluster gate.
MIN_THREAD_SCALING = 1.3
SMALL_BOX_SCALING = 0.5


def _small_box(report: dict) -> str | None:
    """The note degrading the scaling floor, on a box that cannot scale."""
    row = report.get("thread_scaling") or {}
    cores = int(row.get("cpu_count") or 0)
    headroom = float(row.get("headroom") or 0.0)
    if cores >= 4 and headroom >= MIN_THREAD_SCALING:
        return None
    reason = (f"only {cores} core(s)" if cores < 4
              else f"headroom probe measured {headroom:.2f}x")
    return (f"thread-scaling floor degraded to bounded-overhead "
            f"({SMALL_BOX_SCALING:.2f}x): {reason} — this machine cannot "
            f"express {MIN_THREAD_SCALING:.2f}x (measured scaling: "
            f"{float(row.get('scaling') or 0.0):.2f}x, GIL-release "
            f"{float(row.get('gil_release') or 0.0):.2f})")


SPEC = Artifact(
    name="execbench",
    help="kernel-backend benchmark: fused vs numpy vs native over the "
         "shared plan (writes BENCH_exec.json)",
    path="BENCH_exec.json",
    schema=SCHEMA,
    flags=(
        Flag("--network", "hailfinder", "bundled/analog name or .bif path"),
        Flag("--cases", 24, "seeded evidence cases (20%% observed)",
             kwarg="num_cases"),
        Flag("--repeats", 3, "timing repetitions (best-of)"),
        Flag("--seed", 2023, "RNG seed of the evidence cases"),
    ),
    run=run_execbench,
    render=render_execbench,
    check_flag="--fresh",
    check_default="BENCH_exec.fresh.json",
    baseline_flag="--baseline",
    compare=_vs_committed,
    gates=(
        Gate("vs_baseline.shared_rows", ">=", 1),
        Gate("vs_baseline.relative[*]", "<=", 1.25),
        # Speedups are ratios of two runs on the same machine.
        Gate("single_case.speedup_fused", ">=", 1.2),
        # A speedup can never be bought with diverging answers.
        Gate("max_abs_diff", "<", 1e-9),
        Gate("single_case.speedup_native", ">=", 1.5, _no_native),
        # Python-counter rate during native calls / solo rate: ~0 on any
        # machine once a change holds the GIL through the call.
        Gate("thread_scaling.gil_release", ">=", 0.05, _no_native),
        # One of the two scaling rows applies: the full floor, or — with
        # the printed note — the bounded-overhead one ("" skips silently).
        Gate("thread_scaling.scaling", ">=", MIN_THREAD_SCALING,
             lambda r: _no_native(r) or _small_box(r)),
        Gate("thread_scaling.scaling", ">=", SMALL_BOX_SCALING,
             lambda r: _no_native(r) or (None if _small_box(r) else "")),
    ),
)
