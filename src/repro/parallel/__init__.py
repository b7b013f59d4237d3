"""Parallel execution runtime (the OpenMP substitute — see DESIGN.md).

The paper's engines are C++/OpenMP: threads sharing one address space.
In Python the equivalents are:

* :class:`~repro.parallel.backend.SerialBackend` — inline execution
  (``t=1`` in the paper's sweeps);
* :class:`~repro.parallel.backend.ThreadBackend` — a persistent
  ``ThreadPoolExecutor``; NumPy kernels release the GIL on large arrays
  and the native kernels for the whole of every call, so dispatched work
  genuinely overlaps.

Work units are *entry-range chunks* of potential tables
(:mod:`repro.parallel.chunking`) or case blocks of a batch; tasks receive
ndarray views into the plan arena directly.  Server processes share a
model's tables through the page cache instead, by mapping one model file
(:mod:`repro.service.modelfile`).
"""

from repro.parallel.backend import (
    Backend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.parallel.chunking import chunk_ranges, chunk_weighted

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "make_backend",
    "chunk_ranges",
    "chunk_weighted",
]
