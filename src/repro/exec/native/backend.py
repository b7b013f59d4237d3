"""The ``native`` kernel backend: cases execute outside the interpreter.

:class:`NativeKernels` implements the :class:`~repro.exec.kernels.
KernelBackend` contract over the C library of
:mod:`repro.exec.native.build`, at three granularities (coarsest first:
whole cases, whole schedules, single messages — see the class).  Three
properties follow that no NumPy formulation has:

* **one foreign call per case block** — :meth:`NativeKernels.infer_cases`
  reduces the evidence, runs the compiled schedule, reads the requested
  posteriors and computes log P(e) for a block of cases inside one call;
  the interpreter only builds the evidence matrix and wraps the output
  block, so ``FastBNI.infer`` and ``core.batch.infer_cases`` pay no
  per-message and no per-variable Python work;
* **GIL release** — ``ctypes`` drops the GIL for the duration of every
  foreign call, so thread-dispatched case blocks genuinely overlap on
  separate cores instead of time-slicing one interpreter;
* **zero-block skipping** — the compiled schedule carries per-clique
  nonzero-run lists derived from the plan's CPT-product base tables
  (:meth:`repro.exec.plan.MessagePlan.zero_skip_runs`); the C loops jump
  over entries that are structurally zero, which deterministic-CPT
  networks have in bulk.

Everything C walks is lowered once per plan from plain
:class:`~repro.exec.plan.PlanSpec` data into flat int64 tables
(:func:`lower_plan`) and bounds-checked against the arena in Python
(:func:`check_tables`) before the first call; evidence matrices and read
ids are range-checked per call.  C never sees an offset, size, map entry
or state index that was not checked here.

Numerically the backend follows the ``fused`` conventions exactly (same
``new/(old + (old == 0))`` separator update, same normalisation points),
so the property suite pins it against ``numpy`` at 1e-12 like any other
backend.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import BackendError, EvidenceError, QueryError
from repro.exec.kernels import KernelBackend, resolve_maps
from repro.exec.native.build import META_STRIDE, VAR_STRIDE

EMPTY_MESSAGE = "evidence has zero probability (empty message)"


@dataclass(eq=False)
class PlanTables:
    """One plan lowered to the flat int64 tables the C runners walk."""

    #: ``(n_messages, META_STRIDE)`` compiled schedule (layout in build.py).
    meta: np.ndarray
    n_messages: int
    #: Largest separator: the C message scratch holds ``2 * max_sep``.
    max_sep: int
    #: Per message ``(marg map, absorb map, src runs, dst runs)`` — the
    #: arrays whose addresses ``meta`` holds, kept alive with it.
    operands: list
    #: ``(n_vars, VAR_STRIDE)`` per-variable geometry (layout in build.py).
    var_table: np.ndarray
    root_offset: int
    root_size: int
    #: The default read, every variable: ``(reads table, row entries)``.
    all_reads: tuple[np.ndarray, int]
    #: Addresses of ``meta``/``var_table`` (``ndarray.ctypes`` is slow
    #: enough to matter on a 0.1 ms call).
    meta_addr: int = field(init=False)
    var_addr: int = field(init=False)

    def __post_init__(self) -> None:
        self.meta_addr = self.meta.ctypes.data
        self.var_addr = self.var_table.ctypes.data


def reads_table(spec, read_ids) -> tuple[np.ndarray, int]:
    """``(variable id, output offset)`` rows for ``read_ids`` — marginals
    side by side in that order — and the length of one output row."""
    rows, entries = [], 0
    for vid in read_ids:
        if not 0 <= vid < len(spec.variables):
            raise QueryError(f"variable id {vid} out of range")
        rows.append((vid, entries))
        entries += spec.variables[vid][3]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 2), entries


def lower_plan(plan) -> "PlanTables | bool":
    """Lower ``plan`` to :class:`PlanTables`, bounds-checked.

    ``False`` when the plan's index maps exceed its cache budget (there
    is then nothing to hand C; the per-message path computes maps on the
    fly).
    """
    spec = plan.spec
    msgs = plan.compiled_messages()
    runs = plan.zero_skip_runs()
    meta = np.zeros((len(msgs), META_STRIDE), dtype=np.int64)
    operands = []
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
        operands.append((m_marg, m_abs, src_runs, dst_runs))
    var_table = np.array(
        [(spec.clique_offsets[cid], spec.clique_sizes[cid], stride, card)
         for cid, _, stride, card in spec.variables],
        dtype=np.int64).reshape(len(spec.variables), VAR_STRIDE)
    tables = PlanTables(
        meta=meta, n_messages=len(msgs),
        max_sep=max(spec.sep_sizes, default=0), operands=operands,
        var_table=var_table,
        root_offset=spec.clique_offsets[spec.root],
        root_size=spec.clique_sizes[spec.root],
        all_reads=reads_table(spec, range(len(spec.variables))))
    check_tables(spec, tables)
    return tables


def _is_i64(array, *shape: int) -> bool:
    return (isinstance(array, np.ndarray) and array.dtype == np.int64
            and array.shape == shape and array.flags.c_contiguous)


def check_tables(spec, tables: PlanTables) -> None:
    """Bounds-check lowered tables against the arena layout.

    Every table a message or a variable names must lie inside its region
    of the arena, every index map must be as long as its clique and point
    inside its separator, every run list must be increasing and inside
    its clique, every variable's ``stride * cardinality`` blocks must
    tile its clique exactly.  Raises :class:`~repro.errors.BackendError`
    otherwise — C walks these tables without looking back.
    """
    def need(ok, what: str) -> None:
        if not ok:
            raise BackendError(f"native plan tables rejected: {what}")

    cliques = (0, spec.clique_entries)
    seps = (spec.clique_entries, spec.arena_entries)

    def inside(off: int, size: int, region: tuple[int, int]) -> bool:
        return size >= 1 and region[0] <= off and off + size <= region[1]

    meta = tables.meta
    need(_is_i64(meta, tables.n_messages, META_STRIDE)
         and len(tables.operands) == tables.n_messages,
         "message table has the wrong shape")
    checked: set[tuple[int, int]] = set()
    for i, (row, operands) in enumerate(zip(meta.tolist(), tables.operands)):
        (_, src_off, dst_off, sep_off, src_size, dst_size, sep_size,
         marg_addr, abs_addr, src_addr, n_src, dst_addr, n_dst) = row
        m_marg, m_abs, src_runs, dst_runs = operands
        need(inside(src_off, src_size, cliques)
             and inside(dst_off, dst_size, cliques)
             and inside(sep_off, sep_size, seps)
             and sep_size <= tables.max_sep,
             f"message {i} names a table outside the arena")
        for imap, addr, size in ((m_marg, marg_addr, src_size),
                                 (m_abs, abs_addr, dst_size)):
            need(_is_i64(imap, size) and imap.ctypes.data == addr,
                 f"message {i} has an index map that is not its clique's")
            if (addr, sep_size) not in checked:
                need(0 <= imap.min() and imap.max() < sep_size,
                     f"message {i} has an index map leaving its separator")
                checked.add((addr, sep_size))
        for bounds, addr, count, size in ((src_runs, src_addr, n_src, src_size),
                                          (dst_runs, dst_addr, n_dst, dst_size)):
            if bounds is None:
                need(addr == 0 and count == 0,
                     f"message {i} names a run list it does not have")
                continue
            need(_is_i64(bounds, 2 * count) and count >= 1
                 and bounds.ctypes.data == addr
                 and 0 <= bounds[0] and bounds[-1] <= size
                 and bool((np.diff(bounds) > 0).all()),
                 f"message {i} has a run list leaving its clique")
    n_vars = len(spec.variables)
    var_table = tables.var_table
    need(_is_i64(var_table, n_vars, VAR_STRIDE),
         "variable table has the wrong shape")
    for v, (off, size, stride, card) in enumerate(var_table.tolist()):
        need(inside(off, size, cliques) and stride >= 1 and card >= 1
             and size % (stride * card) == 0,
             f"variable {v} does not tile a clique inside the arena")
    need(inside(tables.root_offset, tables.root_size, cliques),
         "root table outside the arena")


class NativeKernels(KernelBackend):
    """C-library backend: GIL-free foreign calls instead of NumPy dispatch.

    Construct via :func:`repro.exec.native.load_native_kernels` (which
    compiles/loads the library) — the registry does this lazily on first
    ``get_kernels("native")``.

    Three granularities, coarsest first:

    * :meth:`infer_cases` — whole *cases*: evidence reduction, schedule,
      posterior reads and log P(e) for a block of cases as **one** foreign
      call over one per-thread scratch arena.  Used by ``FastBNI.infer``
      (``mode="seq"``) and ``core.batch.infer_cases`` whenever the
      request is hard-evidence-only and no kernel hooks are recording;
    * :meth:`run_schedule` — the whole single-case calibration as **one**
      foreign call over a per-plan compiled metadata table (the schedule
      is compiled, not interpreted: per-message Python/ctypes overhead is
      paid zero times per case).  Used by ``run_message_schedule`` (soft
      evidence, callers holding their own state) when no kernel hooks are
      recording; :meth:`run_schedules` does the same for many states;
    * :meth:`message` / :meth:`message_batch` — one call per message, for
      one case or a whole case block (the property-test contract, the
      hooks-instrumented trace path, ``inter`` mode, and plans whose index
      maps are over budget).
    """

    name = "native"
    wants_maps = True
    #: The schedule loop passes per-clique nonzero-run skip lists.
    wants_skips = True
    #: run_message_schedule may delegate whole calibrations to run_schedule.
    compiles_schedule = True
    #: Engines may delegate whole hard-evidence cases to infer_cases.
    compiles_cases = True

    def __init__(self, lib, library_path) -> None:
        self._lib = lib
        self.library_path = str(library_path)
        self._message = lib.fbni_message
        self._message_batch = lib.fbni_message_batch
        self._run_schedule = lib.fbni_run_schedule
        self._run_schedules = lib.fbni_run_schedules
        self._infer_cases = lib.fbni_infer_cases
        # Per-thread scratch (message scratch, case arena) and status
        # word: the backend is a process-wide singleton and
        # thread-dispatched case blocks / per-case threads call into it
        # concurrently.
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

    # ------------------------------------------------------------ whole cases
    def _case_scratch(self, entries: int) -> tuple[int, int]:
        """Addresses of this thread's ``entries``-double case scratch and
        of its status word (addresses cached: see :class:`PlanTables`)."""
        held = getattr(self._local, "case", None)
        if held is None or held[0].size < entries:
            buf = np.empty(entries)
            held = self._local.case = (buf, buf.ctypes.data,
                                       self._status().ctypes.data)
        return held[1], held[2]

    def infer_cases(self, plan, evidence: np.ndarray,
                    read_ids: tuple[int, ...], case_offset: int | None = None):
        """Whole hard-evidence cases in **one** foreign call.

        ``evidence`` is a ``(k, variables)`` int64 matrix of state indices
        (``-1`` = unobserved, :meth:`MessagePlan.evidence_matrix`) and
        ``read_ids`` the variable ids to read.  Returns ``(posteriors,
        log_evidence)``: a fresh ``(k, entries)`` block holding the
        requested normalised marginals side by side in ``read_ids`` order
        (variable *v* takes ``cardinality(v)`` columns) and the ``(k,)``
        log P(e) vector, ``-inf`` where the calibrated root is empty —
        neither aliases the scratch arena.  ``None`` when the plan cannot
        be lowered (index maps over budget); callers then run the staged
        path.

        Raises what the staged path raises: :class:`EvidenceError` for an
        empty message and :class:`QueryError` for a posterior that cannot
        be normalised, naming case ``case_offset + i`` when a
        ``case_offset`` is given (batched callers) and no case otherwise.
        """
        tables = self._lowered(plan)
        if tables is None:
            return None
        spec = plan.spec
        n_vars = len(spec.variables)
        if not _is_i64(evidence, len(evidence), n_vars):
            raise BackendError(
                f"evidence must be a C-contiguous int64 (cases, {n_vars}) "
                "matrix")
        if evidence.size and (evidence.min() < -1
                              or (evidence >= tables.var_table[:, 3]).any()):
            raise EvidenceError(
                "evidence matrix holds a state index outside its "
                "variable's range")
        reads, entries = (tables.all_reads
                          if read_ids == plan.variable_ids()
                          else reads_table(spec, read_ids))
        k = len(evidence)
        # One output block: each row is the marginals then log P(e).
        out = np.empty((k, entries + 1))
        base = plan.base_flat  # held: adopt_base may swap the plan's
        arena, status = self._case_scratch(
            spec.arena_entries + 2 * tables.max_sep)
        self._infer_cases(
            base.ctypes.data, spec.clique_entries,
            arena, spec.arena_entries, tables.meta_addr, tables.n_messages,
            arena + 8 * spec.arena_entries, tables.var_addr, n_vars,
            evidence.ctypes.data, k, reads.ctypes.data, len(read_ids),
            tables.root_offset, tables.root_size,
            out.ctypes.data, entries, status)
        failed, where = self._status().tolist()
        if failed >= 0:
            case = "" if case_offset is None else f" in case {case_offset + failed}"
            if where >= 0:
                raise EvidenceError(EMPTY_MESSAGE + case)
            name = plan.variable_names[read_ids[-1 - where]]
            raise QueryError(f"cannot normalise posterior of {name!r}{case} "
                             f"(total={float(out[failed, entries])})")
        return out[:, :entries], out[:, entries].copy()

    # ------------------------------------------------------ compiled schedule
    def _lowered(self, plan) -> "PlanTables | None":
        """The plan's lowered tables (built and bounds-checked once), or
        ``None`` when its index maps exceed the cache budget — the
        per-message path then handles the plan generically."""
        tables = plan.__dict__.get("_native_schedule")
        if tables is None:
            tables = plan.__dict__["_native_schedule"] = lower_plan(plan)
        return tables or None

    def run_schedule(self, plan, state):
        """Calibrate ``state`` in one foreign call; ``(messages, log_norm)``.

        Returns ``None`` when this plan/state pair can't take the fast
        path — index maps over budget, or a state whose tables are not
        the plan's arena layout (checked by address arithmetic on the
        first/last tables; only ``MessagePlan.fresh_state`` arenas pass).
        The caller then falls back to the per-message loop.
        """
        tables = self._lowered(plan)
        if tables is None:
            return None
        if tables.n_messages == 0:
            return 0, 0.0
        base = self._arena_base(plan.spec, state)
        if base is None:
            return None
        scratch = self._scratch(tables.max_sep)
        status = self._status()
        log_norm = self._run_schedule(base, tables.meta.ctypes.data,
                                      tables.n_messages,
                                      scratch.ctypes.data, status.ctypes.data)
        if int(status[0]) >= 0:
            raise EvidenceError(EMPTY_MESSAGE)
        return tables.n_messages, log_norm

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

        For caller-held states: a thread-dispatched chunk of them
        spends its whole calibration GIL-free, so chunks overlap on real
        cores instead of ping-ponging the GIL at per-message granularity.
        Adds each state's collect-phase constant to its ``log_norm`` and
        returns the number of messages executed per state; ``None`` when
        the fast path is unavailable (the caller loops per state).
        """
        tables = self._lowered(plan)
        if tables is None:
            return None
        n_messages = tables.n_messages
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
        scratch = self._scratch(tables.max_sep)
        status = self._status()
        self._run_schedules(addrs.ctypes.data, len(states),
                            tables.meta.ctypes.data, n_messages,
                            scratch.ctypes.data, log_norms.ctypes.data,
                            status.ctypes.data)
        if int(status[0]) >= 0:
            raise EvidenceError(EMPTY_MESSAGE)
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
            raise EvidenceError(EMPTY_MESSAGE)
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
            raise EvidenceError(f"{EMPTY_MESSAGE} in case {case_offset + bad}")
        return np.log(totals)
