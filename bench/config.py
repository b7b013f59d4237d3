"""Every fixed choice of the benchmark, stated once.

The configuration under test is the one ROADMAP names as the fast path:
sequential engines on the native C kernels, and ``fastbni serve`` with
``--kernels native`` and every other flag at its default.  Nothing else in
``bench/`` names an engine option or a server flag.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (native ``.so``, traces, results).
OUT = BENCH / "out"
NATIVE_CACHE = OUT / "native-cache"

#: Library engines: ``FastBNI(net, **ENGINE_OPTIONS)``.
ENGINE_OPTIONS = {"mode": "seq", "kernels": "native"}
KERNELS = ENGINE_OPTIONS["kernels"]

DEFAULT_SEED = 20230225
DEFAULT_SECONDS = 20
#: Posteriors and log P(e) must match the numpy oracle this closely.
TOLERANCE = 1e-9
#: Ops per workload re-answered by the oracle after the timed passes.
ORACLE_SAMPLES = 32
#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_SPAWNS = 5
#: Nominal seconds of replica passes run with the span wrappers installed.
TRACED_SECONDS = 5
#: Share of ``--seconds`` a ``--trace 1`` run spends on untraced passes
#: (the base of ``trace.overhead_ratio`` and of the tail diagnostics).
TRACE_BASE_SHARE = 0.5
#: A pass counts as quiet when its p50 is within this of the quietest.
QUIET_BAND = 0.03
#: Passes stop early once a phase has run this multiple of its budget,
#: so a slow host truncates the run instead of overrunning the driver.
OVERRUN = 1.6
#: Per-reply socket timeout; a reply slower than this is a failed op.
REPLY_TIMEOUT_S = 30.0
#: Seconds a child gets to exit after stdin closes / SIGTERM, then SIGKILL.
REAP_TIMEOUT_S = 10.0

#: Fingerprint keys that must agree before two results are comparable.
COMPARABLE = ("cores", "cpu_model", "python", "numpy", "compiler", "native",
              "native_so_sha256")

BATCH_CASES = 256
SESSION_UPDATES = 48
SESSION_WINDOW = 8
SESSION_TARGETS = 3
OBSERVED_FRACTION = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "lib": a library worker process; "serve": a server process
    network: str
    ops_per_pass: int
    #: Distinct op lists the passes cycle through; each list is replayed
    #: ``passes / lists`` times.  0: no list ever repeats (``serve_cold``),
    #: where passes are replicas only in the statistical sense.
    lists: int
    smoke_ops: int
    cases_per_op: int
    #: Wall time of one pass at the speed measured when the benchmark was
    #: written; ``--seconds`` buys ``seconds / pass_seconds`` passes, so the
    #: work of a run is fixed and a faster commit simply finishes sooner.
    pass_seconds: float
    #: Metric values that show the workload stayed on the path it is named
    #: for; a run that reports anything else is incorrect.
    on_path: dict
    why: str


#: Passes are short (~0.13 s) so that a quiet stretch of the host need only
#: be that long to be caught; a *round* of ``lists`` passes is the workload
#: the issue describes (600 cases, 48 batches, 10 sessions).
WORKLOADS = {w.name: w for w in (
    Workload("lib_single", "lib", "pathfinder", 75, 8, 40, 1, 0.125, {},
             "one case per call through plan read, absorb and the C "
             "schedule: shows kernel and wrapper-into-C gains"),
    Workload("lib_batch", "lib", "hailfinder", 6, 8, 2, BATCH_CASES, 0.15,
             {"core.batch.cases_per_call": BATCH_CASES},
             "256 cases per call through the table-major batched entry "
             "points: the paper's many-cases workload"),
    Workload("serve_cold", "serve", "hailfinder", 14, 0, 14, 1, 0.125,
             {"service.cache.memo_share": 0, "service.cache.delta_share": 0,
              "service.batcher.mean_fill": 1},
             "one connection, no evidence set repeats: batcher timer, "
             "fill-1 flush, record_cold and the wire, kernels ~1%"),
    Workload("serve_session", "serve", "pathfinder", SESSION_UPDATES + 2, 10,
             SESSION_UPDATES + 2, 1, 0.14,
             {"service.batcher.mean_fill": 0,
              "exec.kernels.messages_per_op": 0},
             "scripted evidence sessions on the delta path: no kernel "
             "backend is ever called, the bypass for exec.kernels changes"),
)}


def serve_command(network: str, trace_path: Path | None = None) -> list[str]:
    """``fastbni serve`` on the fast path, optionally with spans installed."""
    serve = ["serve", "--port", "0", "--preload", network,
             "--kernels", KERNELS]
    if trace_path is None:
        return [sys.executable, "-m", "repro.cli", *serve]
    return [sys.executable, str(BENCH / "traced_serve.py"), str(trace_path),
            *serve]


def worker_command(workload: str, trace_path: Path | None = None) -> list[str]:
    cmd = [sys.executable, str(BENCH / "lib_worker.py"), workload]
    return cmd if trace_path is None else [*cmd, str(trace_path)]


def child_env() -> dict[str, str]:
    """Environment of every process under test: repo source, native cache
    and scratch space inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def passes_for(workload: Workload, seconds: float) -> int:
    """Passes ``seconds`` buys: whole rounds, at least two."""
    lists = max(workload.lists, 1)
    return lists * max(2, round(seconds / workload.pass_seconds / lists))
