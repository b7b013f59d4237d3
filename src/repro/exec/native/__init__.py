"""Native (C, via ctypes) kernel backend — compile-on-first-use.

Public surface:

* :func:`load_native_kernels` — build/load the library and return a
  ready :class:`~repro.exec.native.backend.NativeKernels`, or ``(None,
  reason)`` when the toolchain is missing (callers fall back to
  ``numpy``);
* :func:`native_status` — availability probe for benches, tests and CI
  (``(available, reason)`` without constructing a backend twice).
"""

from __future__ import annotations

from repro.exec.native.build import (CACHE_ENV, DISABLE_ENV, C_SOURCE,
                                     cache_dir, find_compiler, load_library,
                                     probe_parallel_headroom)

__all__ = ["CACHE_ENV", "DISABLE_ENV", "C_SOURCE", "cache_dir",
           "find_compiler", "load_library", "load_native_kernels",
           "native_status", "probe_parallel_headroom"]


def load_native_kernels():
    """``(NativeKernels, None)`` when the library builds, else ``(None, reason)``."""
    lib, so_path, reason = load_library()
    if lib is None:
        return None, reason
    from repro.exec.native.backend import NativeKernels

    return NativeKernels(lib, so_path), None


def native_status() -> tuple[bool, str | None]:
    """Whether the native backend can be built here, and why not if not."""
    lib, _, reason = load_library()
    return (lib is not None), reason
