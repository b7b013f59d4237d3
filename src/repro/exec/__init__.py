"""The shared execution layer: compile-once plans + pluggable kernels.

Three pieces, consumed by every engine (see :mod:`repro.core`,
:mod:`repro.jt.incremental`) and by the service layer:

* :mod:`repro.exec.plan` — :func:`compile_plan` turns a junction tree +
  layer schedule into a :class:`MessagePlan`: one contiguous arena layout
  with offsets for every clique/separator table plus per-edge
  :class:`EdgeGeometry` in both the index-map and N-D-view formulations;
* :mod:`repro.exec.kernels` — the :class:`KernelBackend` protocol with
  the default ``native`` backend (:mod:`repro.exec.native`), strided
  messages compiled to a C library called GIL-free through ``ctypes``,
  and the ``numpy`` reference backend it falls back to;
* :mod:`repro.exec.engine_api` — the :class:`InferenceEngine` protocol
  and :class:`EngineCapabilities` flags the service layers dispatch on.
"""

from repro.exec.engine_api import (APPROX_ENGINE, CAPABILITIES_BY_KIND,
                                   EXACT_ENGINE, INCREMENTAL_ENGINE,
                                   EngineCapabilities, InferenceEngine)
from repro.exec.kernels import (KERNELS, KernelBackend, NumpyKernels,
                                get_kernels, run_message_schedule)

#: Plan symbols resolve lazily: repro.exec.plan sits above the potential
#: and jt layers, whose modules import repro.exec.kernels — an eager
#: import here would close that cycle.
_PLAN_EXPORTS = ("EdgeGeometry", "MessagePlan", "PlanSpec", "compile_plan",
                 "stride_triples")
#: Native symbols resolve lazily too: NativeKernels needs a built
#: library, and the availability probe should not be paid at import time.
_NATIVE_EXPORTS = ("load_native_kernels", "native_status")


def __getattr__(name: str):
    if name in _PLAN_EXPORTS:
        from repro.exec import plan

        return getattr(plan, name)
    if name in _NATIVE_EXPORTS:
        from repro.exec import native

        return getattr(native, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "APPROX_ENGINE",
    "CAPABILITIES_BY_KIND",
    "EXACT_ENGINE",
    "INCREMENTAL_ENGINE",
    "EdgeGeometry",
    "EngineCapabilities",
    "InferenceEngine",
    "KERNELS",
    "KernelBackend",
    "MessagePlan",
    "NumpyKernels",
    "PlanSpec",
    "compile_plan",
    "get_kernels",
    "load_native_kernels",
    "native_status",
    "run_message_schedule",
    "stride_triples",
]
