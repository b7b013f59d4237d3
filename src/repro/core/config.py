"""Configuration for the Fast-BNI engine."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BackendError
from repro.exec.kernels import KERNELS
from repro.jt.structure import DEFAULT_HEURISTIC

MODES = ("seq", "inter", "intra", "hybrid")


@dataclass(frozen=True)
class FastBNIConfig:
    """Knobs of the Fast-BNI engine.

    Parameters
    ----------
    mode:
        Parallel granularity (see :mod:`repro.core`); ``"seq"`` (the
        default) is Fast-BNI-seq, one native call per hard-evidence case.
    num_workers:
        Worker count (the paper's *t*); ``None`` = CPU count capped at 32.
        ``seq`` and one worker run inline; more workers run on a thread
        pool over the shared plan arena (the paper's OpenMP model).
    heuristic:
        Triangulation heuristic: ``"cheapest"`` (the default) builds the
        tree from whichever of min-fill, min-weight and min-degree gives
        the fewest clique-table entries; a heuristic name forces it (see
        :func:`repro.jt.structure.compile_cliques`).
    root_strategy:
        ``"center"`` enables the paper's root selection; ``"first"``
        disables it (ablation).
    kernels:
        Kernel backend for whole-message execution (the sequential, inter
        and batched paths): ``"native"`` (strided messages compiled to a C
        library called GIL-free through ctypes, the default here and of
        the CLI's ``query`` / ``serve`` / ``cluster``; falls back to
        ``numpy`` with a logged reason when no C compiler is available)
        or ``"numpy"`` (the N-D-view reference).  See
        :mod:`repro.exec.kernels`.
    min_chunk:
        Smallest entry-range worth dispatching as its own task; tables
        smaller than this are processed inline by the master (controls the
        parallelization overhead the paper discusses for small networks).
    parallel_threshold:
        Smallest flattened layer pool (total entries) worth dispatching to
        the workers at all; smaller layers run inline on the master.  In
        C++/OpenMP this cut-over sits near zero because fork/join costs
        ~µs; in Python the dispatch+GIL cost per batch is ~0.5–5 ms, so
        the default is sized for that substrate.
    """

    mode: str = "seq"
    num_workers: int | None = None
    heuristic: str = DEFAULT_HEURISTIC
    root_strategy: str = "center"
    kernels: str = "native"
    min_chunk: int = 16384
    parallel_threshold: int = 100_000

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise BackendError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.kernels not in KERNELS:
            raise BackendError(
                f"unknown kernel backend {self.kernels!r}; expected one of {KERNELS}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise BackendError("num_workers must be >= 1")
        if self.min_chunk < 1:
            raise BackendError("min_chunk must be >= 1")
        if self.parallel_threshold < 0:
            raise BackendError("parallel_threshold must be >= 0")
