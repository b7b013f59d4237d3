"""The ``native`` kernel backend: messages execute outside the interpreter.

:class:`NativeKernels` implements the :class:`~repro.exec.kernels.
KernelBackend` contract by handing each whole message to one C call
(:mod:`repro.exec.native.build`).  Two properties follow that no NumPy
formulation has:

* **GIL release** — ``ctypes`` drops the GIL for the duration of every
  foreign call, so thread-dispatched case blocks
  (:func:`repro.core.batch.calibrate_case_block` on the ``thread``
  backend) genuinely overlap on separate cores instead of time-slicing
  one interpreter;
* **zero-block skipping** — the single-case schedule passes per-clique
  nonzero-run lists derived from the plan's CPT-product base tables
  (:meth:`repro.exec.plan.MessagePlan.zero_skip_runs`); the C loops jump
  over entries that are structurally zero, which deterministic-CPT
  networks have in bulk.

Numerically the backend follows the ``fused`` conventions exactly (same
``new/(old + (old == 0))`` separator update, same normalisation points),
so the property suite pins it against ``numpy`` at 1e-12 like any other
backend.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.errors import EvidenceError
from repro.exec.kernels import KernelBackend, resolve_maps
from repro.exec.native.build import META_STRIDE


class NativeKernels(KernelBackend):
    """C-library backend: GIL-free foreign calls instead of NumPy dispatch.

    Construct via :func:`repro.exec.native.load_native_kernels` (which
    compiles/loads the library) — the registry does this lazily on first
    ``get_kernels("native")``.

    Three granularities, coarsest first:

    * :meth:`run_schedule` — the whole single-case calibration as **one**
      foreign call over a per-plan compiled metadata table (the schedule
      is compiled, not interpreted: per-message Python/ctypes overhead is
      paid zero times per case).  Used by ``run_message_schedule`` when
      no kernel hooks are recording;
    * :meth:`message_batch` — one call per message covering a whole case
      block (the batched engine's path; the per-call overhead amortises
      over the block's rows);
    * :meth:`message` — one call per message (the property-test contract
      and the hooks-instrumented trace path).
    """

    name = "native"
    wants_maps = True
    #: The schedule loop passes per-clique nonzero-run skip lists.
    wants_skips = True
    #: run_message_schedule may delegate whole calibrations to run_schedule.
    compiles_schedule = True

    def __init__(self, lib, library_path) -> None:
        self._lib = lib
        self.library_path = str(library_path)
        self._message = lib.fbni_message
        self._message_batch = lib.fbni_message_batch
        self._run_schedule = lib.fbni_run_schedule
        self._run_schedules = lib.fbni_run_schedules
        # Per-thread scratch (2 * sep_size doubles) and status word: the
        # backend is a process-wide singleton and thread-dispatched case
        # blocks / per-case threads call into it concurrently.
        self._local = threading.local()

    def _scratch(self, sep_size: int) -> np.ndarray:
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.size < 2 * sep_size:
            buf = self._local.buf = np.empty(max(2 * sep_size, 512))
        return buf

    def _status(self) -> np.ndarray:
        status = getattr(self._local, "status", None)
        if status is None:
            status = self._local.status = np.empty(2, dtype=np.int64)
        return status

    # ------------------------------------------------------ compiled schedule
    def _compile_schedule(self, plan):
        """Build the per-plan metadata table ``fbni_run_schedule`` walks.

        Returns ``False`` (cached by the caller) when the plan's index
        maps exceed the cache budget — the per-message path then handles
        the plan generically.
        """
        spec = plan.spec
        msgs = plan.compiled_messages()
        runs = plan.zero_skip_runs()
        meta = np.zeros((len(msgs), META_STRIDE), dtype=np.int64)
        keepalive = []
        for i, (upward, src, dst, sep_id, edge, m_marg, m_abs) in enumerate(msgs):
            if m_marg is None or m_abs is None:
                return False
            src_runs, dst_runs = runs[src], runs[dst]
            meta[i] = (
                int(upward),
                spec.clique_offsets[src], spec.clique_offsets[dst],
                spec.sep_offsets[sep_id],
                spec.clique_sizes[src], spec.clique_sizes[dst],
                spec.sep_sizes[sep_id],
                m_marg.ctypes.data, m_abs.ctypes.data,
                0 if src_runs is None else src_runs.ctypes.data,
                0 if src_runs is None else src_runs.size // 2,
                0 if dst_runs is None else dst_runs.ctypes.data,
                0 if dst_runs is None else dst_runs.size // 2,
            )
            keepalive.append((m_marg, m_abs, src_runs, dst_runs))
        max_sep = max(spec.sep_sizes, default=0)
        return meta, keepalive, max_sep, len(msgs)

    def run_schedule(self, plan, state):
        """Calibrate ``state`` in one foreign call; ``(messages, log_norm)``.

        Returns ``None`` when this plan/state pair can't take the fast
        path — index maps over budget, or a state whose tables are not
        the plan's arena layout (checked by address arithmetic on the
        first/last tables; only ``MessagePlan.fresh_state`` arenas pass).
        The caller then falls back to the per-message loop.
        """
        blob = plan.__dict__.get("_native_schedule")
        if blob is None:
            blob = plan.__dict__["_native_schedule"] = \
                self._compile_schedule(plan)
        if blob is False:
            return None
        meta, _keepalive, max_sep, n_messages = blob
        spec = plan.spec
        if n_messages == 0:
            return 0, 0.0
        base = self._arena_base(spec, state)
        if base is None:
            return None
        scratch = self._scratch(max_sep)
        status = self._status()
        log_norm = self._run_schedule(base, meta.ctypes.data, n_messages,
                                      scratch.ctypes.data, status.ctypes.data)
        bad = int(status[0])
        if bad >= 0:
            raise EvidenceError("evidence has zero probability (empty message)")
        return n_messages, log_norm

    def _arena_base(self, spec, state) -> int | None:
        """The state's arena base address, or None if it isn't plan-shaped."""
        cliques = state.clique_pot
        base = cliques[0].values.ctypes.data
        last = len(cliques) - 1
        if cliques[last].values.ctypes.data != base + 8 * spec.clique_offsets[last]:
            return None
        seps = state.sep_pot
        if seps and (seps[-1].values.ctypes.data
                     != base + 8 * spec.sep_offsets[-1]):
            return None
        return base

    def run_schedules(self, plan, states):
        """Calibrate many single-case arena states in **one** foreign call.

        The coarsest dispatch unit: a thread-dispatched chunk of cases
        spends its whole calibration GIL-free, so chunks overlap on real
        cores instead of ping-ponging the GIL at per-message granularity.
        Adds each state's collect-phase constant to its ``log_norm`` and
        returns the number of messages executed per state; ``None`` when
        the fast path is unavailable (the caller loops per state).
        """
        blob = plan.__dict__.get("_native_schedule")
        if blob is None:
            blob = plan.__dict__["_native_schedule"] = \
                self._compile_schedule(plan)
        if blob is False:
            return None
        meta, _keepalive, max_sep, n_messages = blob
        if n_messages == 0:
            return 0
        spec = plan.spec
        addrs = np.empty(len(states), dtype=np.int64)
        for i, state in enumerate(states):
            base = self._arena_base(spec, state)
            if base is None:
                return None
            addrs[i] = base
        log_norms = np.empty(len(states))
        scratch = self._scratch(max_sep)
        status = self._status()
        self._run_schedules(addrs.ctypes.data, len(states),
                            meta.ctypes.data, n_messages,
                            scratch.ctypes.data, log_norms.ctypes.data,
                            status.ctypes.data)
        if int(status[0]) >= 0:
            raise EvidenceError("evidence has zero probability (empty message)")
        for state, log_norm in zip(states, log_norms):
            state.log_norm += log_norm
        return n_messages

    def message(self, src, dst, sep, edge, upward, maps=(None, None),
                skips=(None, None)):
        m_marg, m_abs = resolve_maps(src, dst, edge, upward, maps)
        scratch = self._scratch(edge.sep_size)
        src_runs, dst_runs = skips
        total = self._message(
            src.ctypes.data, dst.ctypes.data, sep.ctypes.data,
            m_marg.ctypes.data, m_abs.ctypes.data,
            src.size, dst.size, edge.sep_size,
            scratch.ctypes.data,
            None if src_runs is None else src_runs.ctypes.data,
            0 if src_runs is None else src_runs.size // 2,
            None if dst_runs is None else dst_runs.ctypes.data,
            0 if dst_runs is None else dst_runs.size // 2,
        )
        if total <= 0.0:
            raise EvidenceError("evidence has zero probability (empty message)")
        return math.log(total)

    def message_batch(self, src, dst, sep, edge, upward, maps=(None, None),
                      case_offset=0):
        m_marg, m_abs = resolve_maps(src, dst, edge, upward, maps)
        k = src.shape[0]
        scratch = self._scratch(edge.sep_size)
        totals = np.empty(k)
        bad = self._message_batch(
            src.ctypes.data, dst.ctypes.data, sep.ctypes.data,
            m_marg.ctypes.data, m_abs.ctypes.data,
            src.shape[1], dst.shape[1], edge.sep_size, k,
            scratch.ctypes.data, totals.ctypes.data,
        )
        if bad >= 0:
            raise EvidenceError(
                "evidence has zero probability (empty message) in case "
                f"{case_offset + bad}"
            )
        return np.log(totals)
