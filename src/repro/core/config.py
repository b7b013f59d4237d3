"""Configuration for the Fast-BNI engines."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BackendError
from repro.exec.kernels import KERNELS
from repro.parallel.backend import BACKENDS

MODES = ("seq", "inter", "intra", "hybrid")


@dataclass(frozen=True)
class FastBNIConfig:
    """Knobs of the Fast-BNI engine.

    Parameters
    ----------
    mode:
        Parallel granularity (see :mod:`repro.core`).
    backend:
        Execution backend: ``"thread"`` (the parallel substrate — threads
        over the shared plan arena, the paper's OpenMP model) or
        ``"serial"`` (inline, the ``t=1`` configuration).
    num_workers:
        Worker count (the paper's *t*); ``None`` = CPU count capped at 32.
    heuristic:
        Triangulation heuristic.
    root_strategy:
        ``"center"`` enables the paper's root selection; ``"first"``
        disables it (ablation).
    kernels:
        Kernel backend for whole-message execution (the sequential, inter
        and batched paths): ``"fused"`` (one scatter/gather pass per message
        over the flat arena, the default), ``"numpy"`` (the N-D-view
        reference) or ``"native"`` (the fused message compiled to a C
        library called GIL-free through ctypes; falls back to ``fused``
        with a logged reason when no C compiler is available).  See
        :mod:`repro.exec.kernels`.
    min_chunk:
        Smallest entry-range worth dispatching as its own task; tables
        smaller than this are processed inline by the master (controls the
        parallelization overhead the paper discusses for small networks).
    chunks_per_worker:
        Oversubscription factor: the flattened layer pool aims for
        ``num_workers * chunks_per_worker`` tasks, letting faster workers
        steal the remainder of an unbalanced layer.
    parallel_threshold:
        Smallest flattened layer pool (total entries) worth dispatching to
        the backend at all; smaller layers run inline on the master.  In
        C++/OpenMP this cut-over sits near zero because fork/join costs
        ~µs; in Python the dispatch+GIL cost per batch is ~0.5–5 ms, so
        the default is sized for that substrate.
    """

    mode: str = "hybrid"
    backend: str = "thread"
    num_workers: int | None = None
    heuristic: str = "min-fill"
    root_strategy: str = "center"
    kernels: str = "fused"
    min_chunk: int = 16384
    chunks_per_worker: int = 2
    parallel_threshold: int = 100_000

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise BackendError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.backend not in BACKENDS:
            raise BackendError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.kernels not in KERNELS:
            raise BackendError(
                f"unknown kernel backend {self.kernels!r}; expected one of {KERNELS}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise BackendError("num_workers must be >= 1")
        if self.min_chunk < 1 or self.chunks_per_worker < 1:
            raise BackendError("min_chunk and chunks_per_worker must be >= 1")
        if self.parallel_threshold < 0:
            raise BackendError("parallel_threshold must be >= 0")
