"""Execution backends: serial and thread pool.

A :class:`Backend` executes a batch of independent tasks and blocks until
all complete — exactly the semantics of one OpenMP ``parallel for`` region,
which is how the paper's engines consume it (one batch per layer, a barrier
between layers).

Pools are persistent: creating threads per layer would swamp the
measurement with setup cost (the "parallelization overhead" the paper
analyses is *task dispatch*, which we keep).
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro.errors import BackendError

Task = tuple[Callable[..., Any], tuple]


class Backend:
    """Interface: run a batch of ``(fn, args)`` tasks to completion."""

    name = "abstract"
    num_workers = 1

    def run_batch(self, tasks: Sequence[Task]) -> list[Any]:
        """Execute all tasks; return results in task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialBackend(Backend):
    """Inline execution — the ``t=1`` configuration."""

    name = "serial"

    def run_batch(self, tasks: Sequence[Task]) -> list[Any]:
        return [fn(*args) for fn, args in tasks]


class ThreadBackend(Backend):
    """Persistent thread pool.

    NumPy's inner loops release the GIL for most ufunc/gather/scatter work
    on large arrays, so chunked table kernels overlap on real cores; pure
    Python portions serialise (documented Python-substrate caveat).
    """

    name = "thread"

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise BackendError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        # CPython's default 5 ms GIL switch interval causes convoy effects
        # when many short kernels contend; 0.5 ms keeps handoffs prompt
        # without measurable single-thread cost.
        import sys

        if sys.getswitchinterval() > 0.0005:
            sys.setswitchinterval(0.0005)
        self._pool = ThreadPoolExecutor(max_workers=num_workers,
                                        thread_name_prefix="fastbni")

    def run_batch(self, tasks: Sequence[Task]) -> list[Any]:
        if len(tasks) == 1:  # avoid dispatch latency for singleton batches
            fn, args = tasks[0]
            return [fn(*args)]
        futures: list[Future] = [self._pool.submit(fn, *args) for fn, args in tasks]
        return [f.result() for f in futures]

    def close(self) -> None:
        self._pool.shutdown(wait=True)


#: name -> factory taking the worker count.
_FACTORIES = {"serial": lambda num_workers: SerialBackend(),
              "thread": ThreadBackend}

#: Accepted ``backend`` names (``FastBNIConfig`` and the CLI validate against
#: this) — derived from the registry so they cannot drift from what resolves.
BACKENDS = tuple(_FACTORIES)


def make_backend(kind: str, num_workers: int | None = None) -> Backend:
    """Factory: ``"serial"`` or ``"thread"``.

    ``num_workers`` defaults to the CPU count (capped at 32, the paper's
    maximum thread count).
    """
    factory = _FACTORIES.get(kind)
    if factory is None:
        raise BackendError(
            f"unknown backend {kind!r}; expected one of {BACKENDS}")
    if num_workers is None:
        num_workers = min(os.cpu_count() or 1, 32)
    return factory(num_workers)
