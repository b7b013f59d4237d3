"""Cluster scaling benchmark: what does horizontal scale-out buy?

A single ``InferenceServer`` process is GIL-bound: one event loop parses,
batches, executes and serialises every request.  The cluster tier
(:mod:`repro.cluster`) multiplies that loop across worker *processes*
behind a router, so aggregate throughput should grow with the worker
count until the machine runs out of cores.  This bench measures that
claim with real subprocess workers and reports the speedup of a
router + N-worker cluster over a true single-process server, plus a
same-answer witness proving sharding never changes a posterior.

Both sides are worker subprocesses spawned through the same
:class:`~repro.cluster.supervisor.Supervisor` machinery:

* ``single``  — one worker process, clients connect straight to its
  port (no router in the path — this is the honest single-process
  baseline, not a one-worker cluster);
* ``cluster`` — the router in the bench process fanning out to N
  workers, with ``replicate_hot_qps`` set low so the live QPS signal
  replicates the benched model across every worker (one model would
  otherwise hash to a single worker and scale-out would measure
  nothing).

Both sides run simultaneously and are measured by
:mod:`repro.bench.harness` (untimed warm-up, ABBA-ordered slices, the
median of position-balanced paired ratios).

The speedup a box can show is bounded by its cores — and by how much of
the box a *single* process already exploits.  One ``InferenceServer``
is a two-stage pipeline: the event-loop thread parses and serialises
(GIL-bound) while the batcher's flush thread runs the numpy kernels
(GIL released), so a lone process productively uses about two cores.
On a 2-core box the cluster therefore cannot win — the honest result is
~1x, the gate degrades to "sharding adds only bounded overhead", and
the scale-out multiple is only demanded of machines with cores to
spare.  The report records ``cpu_cores`` next to ``workers`` and the gate
(:func:`cluster_floor`) derives its floor from both.

``fastbni clusterbench`` renders the table and writes
``BENCH_cluster.json``.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np

from repro.bench.artifact import Artifact, Flag, Gate
from repro.bench.harness import (balanced_median, elapsed_of, paired_ratios,
                                 replay_rounds)
from repro.bench.traffic import query_trace, replay_trace_async
from repro.bn.repository import resolve_network
from repro.bn.sampling import generate_test_cases

SCHEMA = "fastbni-bench-cluster-v1"

#: Scale-out only shows when per-request compute outweighs the router
#: hop; the pathfinder analog costs a few ms per exact query (asia costs
#: microseconds and would benchmark JSON plumbing instead).
DEFAULT_NETWORK = "pathfinder"
DEFAULT_REQUESTS = 400
DEFAULT_WORKERS = 4
DEFAULT_CONCURRENCY = 16
#: Even on purpose: rounds alternate side order (ABBA), so an even count
#: gives each side both in-round positions equally often.
DEFAULT_REPEATS = 6
#: Cases pushed through the cluster and compared against a local
#: sequential engine at 1e-9 — the sharding-never-changes-answers
#: witness.
SAME_ANSWER_CASES = 25

#: Worker knobs shared by both sides: the incremental cache is off so
#: every request costs real inference (a warm cache would benchmark the
#: router's socket loop, not scale-out); the policy is pinned exact so
#: the same-answer witness compares like with like; and the
#: micro-batcher is pinned to 1 so the bench isolates *process*
#: scale-out from batch vectorisation — with batching on, splitting one
#: hot stream across workers fragments the single server's large
#: vectorised batches into small expensive ones and the two effects
#: confound (the knobs compose in production; this measures one).
WORKER_OPTIONS = {"cache": False, "policy": "exact", "max_batch": 1}

#: Both sides' workers get single-threaded BLAS: the numpy kernels
#: otherwise fan one request across every core, so the "single-process"
#: baseline is secretly already parallel and the cluster can only add
#: oversubscription.  Pinning isolates process-level scale-out — and is
#: what a real N-workers-per-box deployment wants anyway.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


async def _run_sides(network: str, cases: list, workers: int,
                     concurrency: int, repeats: int, target: str) -> dict:
    """Returns elapsed lists per side plus the cluster's placement
    snapshot and the same-answer posteriors fetched through the router."""
    from repro.cluster.router import ClusterRouter
    from repro.cluster.supervisor import Supervisor

    # Distinct prefixes: both supervisors live in this process, and a
    # shared prefix would have one side's shutdown sweep unlink arenas
    # the other side still serves from.
    single_sup = Supervisor(1, preload=(network,), options=WORKER_OPTIONS,
                            segment_prefix=f"fbni_bench_{os.getpid()}_s_",
                            env_extra=WORKER_ENV)
    cluster_sup = Supervisor(workers, preload=(network,),
                             options=WORKER_OPTIONS,
                             segment_prefix=f"fbni_bench_{os.getpid()}_c_",
                             env_extra=WORKER_ENV)
    router = ClusterRouter("127.0.0.1", 0, supervisor=cluster_sup,
                           replicate_hot_qps=1.0, max_replicas=0)
    single_worker = None
    try:
        loop = asyncio.get_running_loop()
        single_worker, _ = await asyncio.gather(
            loop.run_in_executor(None, lambda: single_sup.start_all()[0]),
            router.start())
        # One explicit target keeps the response payload small:
        # serialising all ~100 posterior vectors of an analog network
        # costs more than inferring them and would benchmark JSON, not
        # scale-out.  The warm-up slice also feeds the router's QPS
        # window, so hot replication has spread the model across workers
        # before the first timed slice.
        elapsed = elapsed_of(await replay_rounds(
            query_trace(network, cases, targets=[target]),
            {"single": single_worker.port, "cluster": router.port},
            concurrency=concurrency, repeats=repeats))

        # Same-answer witness: full posteriors fetched through the router,
        # so they crossed a process boundary and a shared plan arena.
        witness = await replay_trace_async(
            query_trace(network, cases[:SAME_ANSWER_CASES], check=True),
            "127.0.0.1", router.port, concurrency=1)
        if witness.errors:
            raise RuntimeError(f"witness query failed: {witness.errors[0]}")
        placement = await router._op_cluster_stats({})
        return {"elapsed": elapsed,
                "answers": [witness.answers[i]["posteriors"]
                            for i in sorted(witness.answers)],
                "placement": placement["placement"].get(network, [])}
    finally:
        await router.stop()
        if single_worker is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, single_sup.stop_all)


def _same_answer(network, cases: list, answers: list[dict]) -> float:
    """Max |cluster − local sequential| over the witness posteriors."""
    from repro.core import FastBNI

    worst = 0.0
    with FastBNI(network, mode="seq") as engine:
        for case, got in zip(cases, answers):
            want = engine.infer(case.evidence)
            for name, values in got.items():
                diff = float(np.max(np.abs(
                    np.asarray(values) - want.posteriors[name])))
                worst = max(worst, diff)
    return worst


def run_cluster_bench(network: str = DEFAULT_NETWORK,
                      requests: int = DEFAULT_REQUESTS,
                      workers: int = DEFAULT_WORKERS,
                      concurrency: int = DEFAULT_CONCURRENCY,
                      repeats: int = DEFAULT_REPEATS,
                      seed: int = 2023) -> dict:
    """Run the two-side sweep; returns the JSON-ready report dict."""
    net = resolve_network(network)
    cases = generate_test_cases(net, requests, observed_fraction=0.2,
                                rng=seed)
    target = net.variables[0].name
    run = asyncio.run(_run_sides(network, cases, workers, concurrency,
                                 repeats, target))
    max_diff = _same_answer(net, cases[:SAME_ANSWER_CASES], run["answers"])
    return summarize(
        run["elapsed"], network=network,
        config={"requests": requests, "workers": workers,
                "concurrency": concurrency, "repeats": repeats,
                "seed": seed, "target": target,
                "worker_options": WORKER_OPTIONS},
        placement=run["placement"], max_abs_diff=max_diff)


def summarize(elapsed: dict[str, list[float]], *, network: str, config: dict,
              placement: list, max_abs_diff: float) -> dict:
    """The report over both sides' per-round slice times."""
    requests = config["requests"]
    return {
        "schema": SCHEMA,
        "network": network,
        "config": config,
        "cpu_cores": os.cpu_count(),
        "sides": {
            side: {"rps": len(samples) * requests / sum(samples),
                   "rps_runs": [round(requests / e, 1) for e in samples]}
            for side, samples in elapsed.items()
        },
        "speedup": balanced_median(paired_ratios(elapsed["single"],
                                                 elapsed["cluster"])),
        "placement": placement,
        "same_answer": {"cases": SAME_ANSWER_CASES,
                        "max_abs_diff": max_abs_diff},
    }


def render_cluster(report: dict) -> str:
    """Fixed-width table of the sweep (the CLI's stdout)."""
    cfg = report["config"]
    lines = [
        f"cluster scale-out on {report['network']!r} "
        f"({cfg['requests']} requests/slice, concurrency "
        f"{cfg['concurrency']}, {cfg['repeats']} counterbalanced rounds, "
        f"{report['cpu_cores']} cores)",
        f"{'side':>9} {'procs':>6} {'req/s':>9}",
    ]
    procs = {"single": 1, "cluster": cfg["workers"]}
    for side, row in report["sides"].items():
        lines.append(f"{side:>9} {procs[side]:>6} {row['rps']:>9.1f}")
    lines.append(
        f"speedup {report['speedup']:.2f}x at {cfg['workers']} workers "
        f"(median of position-balanced paired ratios); placement "
        f"{report['placement']}")
    same = report["same_answer"]
    lines.append(
        f"same-answer witness: {same['cases']} cases through the router, "
        f"max |Δposterior| = {same['max_abs_diff']:.2e}")
    return "\n".join(lines)


def cluster_floor(workers: int, cores: int) -> float:
    """Machine-aware speedup floor (module docstring): the full 3x
    acceptance multiple exactly when the hardware can express it, bounded
    router + sharding overhead on a box one server already saturates."""
    if cores < 4:
        return 0.75
    return min(3.0, 0.6 * min(workers, cores))


SPEC = Artifact(
    name="clusterbench",
    help="cluster scaling benchmark: router + N workers vs one "
         "single-process server (writes BENCH_cluster.json)",
    path="BENCH_cluster.json",
    schema=SCHEMA,
    flags=(
        Flag("--network", DEFAULT_NETWORK, "bundled/analog name or .bif path"),
        Flag("--requests", DEFAULT_REQUESTS,
             "closed-loop requests per measured round"),
        Flag("--workers", DEFAULT_WORKERS, "cluster worker processes"),
        Flag("--concurrency", DEFAULT_CONCURRENCY,
             "concurrent closed-loop client connections"),
        Flag("--repeats", DEFAULT_REPEATS,
             "interleaved counterbalanced timing rounds"),
    ),
    run=run_cluster_bench,
    render=render_cluster,
    check_flag="--cluster",
    gates=(
        Gate("speedup", ">=", lambda report: cluster_floor(
            report["config"]["workers"], report["cpu_cores"])),
        # Sharding may never change an answer.
        Gate("same_answer.max_abs_diff", "<=", 1e-9),
        Gate("same_answer.cases", ">", 0),
    ),
)
