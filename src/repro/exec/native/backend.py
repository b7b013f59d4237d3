"""The ``native`` kernel backend: cases execute outside the interpreter.

:class:`NativeKernels` implements the :class:`~repro.exec.kernels.
KernelBackend` contract over the C library of
:mod:`repro.exec.native.build`, at three granularities (coarsest first:
whole cases, whole schedules, single messages — see the class).  Three
properties follow that no NumPy formulation has:

* **one foreign call per case block** — :meth:`NativeKernels.infer_cases`
  lists the entries each case's evidence leaves possible, runs over them
  the messages its evidence and reads need from the plan's calibrated
  prior, reads the requested posteriors and computes log P(e) for a
  block of cases inside one call, so ``FastBNI.infer`` and
  ``core.batch.infer_cases`` pay no per-message and no per-variable
  Python work;
* **GIL release** — ``ctypes`` drops the GIL for the duration of every
  foreign call, so thread-dispatched case blocks genuinely overlap on
  separate cores instead of time-slicing one interpreter;
* **zero-block skipping** — the compiled schedule carries per-clique
  nonzero-run lists derived from the plan's CPT-product base tables
  (:meth:`repro.exec.plan.MessagePlan.zero_skip_runs`); the C loops jump
  over entries that are structurally zero, which deterministic-CPT
  networks have in bulk, and the whole-case call intersects them with
  its per-case evidence lists.

Everything C walks is lowered once per plan from plain
:class:`~repro.exec.plan.PlanSpec` data into flat int64 tables
(:func:`lower_plan`) and bounds-checked against the arena in Python
(:func:`check_tables`, which also checks the calibrated prior) before C
first reads them; evidence matrices and read ids are range-checked per
call.  C never sees an offset, size, map entry, state index or prior
that was not checked here.

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
from repro.exec.native.build import (AXIS_STRIDE, CASE_STRIDE, MAX_AXES,
                                     META_STRIDE, RUNS_FULL, TABLE_STRIDE,
                                     VAR_STRIDE)

EMPTY_MESSAGE = "evidence has zero probability (empty message)"


@dataclass(eq=False)
class PlanTables:
    """One plan lowered to the flat int64 tables the C runners walk."""

    #: ``(n_messages, META_STRIDE)`` compiled schedule (layout in build.py).
    meta: np.ndarray
    n_messages: int
    #: Largest separator: the C message scratch holds ``2 * max_sep``.
    max_sep: int
    #: Per message ``(marg map, absorb map)`` and per table its
    #: nonzero-run list or ``None`` — the arrays whose addresses ``meta``
    #: and ``tables`` hold, kept alive with them.
    operands: list
    runs: list
    #: ``(cliques + separators, TABLE_STRIDE)`` per-table geometry, in
    #: arena order, and the ``(axes, AXIS_STRIDE)`` rows it points into.
    tables: np.ndarray
    axes: np.ndarray
    #: ``(n_vars, VAR_STRIDE)`` per-variable geometry (layout in build.py).
    var_table: np.ndarray
    #: The default read, every variable: ``(reads table, row entries)``.
    all_reads: tuple[np.ndarray, int]
    #: Derived, so that a 0.1 ms call takes no ``ndarray.ctypes`` it need
    #: not.  Cardinality per variable, unsigned: a state (or -1) is in
    #: range iff ``state + 1``, reinterpreted as unsigned, does not
    #: exceed it.
    state_limits: np.ndarray = field(init=False)
    #: Addresses of ``meta``, ``tables``, ``axes``, ``var_table``, reads.
    addresses: tuple[int, ...] = field(init=False)
    #: The plan's prior last checked and handed to C, and its address;
    #: one attribute, so threads swap it whole.
    base: tuple = (None, 0)

    def __post_init__(self) -> None:
        self.state_limits = self.var_table[:, 2].astype(np.uint64)
        self.addresses = tuple(a.ctypes.data for a in (
            self.meta, self.tables, self.axes, self.var_table,
            self.all_reads[0]))


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
    runs = plan.zero_skip_runs() + [None] * spec.num_separators
    cards = [card for _, _, _, card in spec.variables]
    axes, rows = [], []
    for off, size, var_ids, bounds in zip(
            spec.clique_offsets + spec.sep_offsets,
            spec.clique_sizes + spec.sep_sizes,
            spec.clique_vars + spec.sep_vars, runs):
        first, stride = len(axes), size
        for vid in var_ids:
            # A one-state axis cannot be pinned and moves no stride.
            if cards[vid] > 1:
                stride //= cards[vid]
                axes.append((vid, stride, cards[vid]))
        rows.append((off, size, first, len(axes) - first)
                    + ((0, 0, size) if bounds is None else
                       (bounds.ctypes.data, bounds.size // 2,
                        int((bounds[1::2] - bounds[::2]).sum()))))
    meta = np.zeros((len(msgs), META_STRIDE), dtype=np.int64)
    operands = []
    for i, (upward, src, dst, sep_id, edge, m_marg, m_abs) in enumerate(msgs):
        if m_marg is None or m_abs is None:
            return False
        meta[i] = (int(upward), m_marg.ctypes.data, m_abs.ctypes.data,
                   src, dst, spec.num_cliques + sep_id)
        operands.append((m_marg, m_abs))
    var_table = np.array(
        [(cid, stride, card) for cid, _, stride, card in spec.variables],
        dtype=np.int64).reshape(len(spec.variables), VAR_STRIDE)
    tables = PlanTables(
        meta=meta, n_messages=len(msgs),
        max_sep=max(spec.sep_sizes, default=0), operands=operands, runs=runs,
        tables=np.array(rows, dtype=np.int64),
        axes=np.array(axes, dtype=np.int64).reshape(len(axes), AXIS_STRIDE),
        var_table=var_table,
        all_reads=reads_table(spec, range(len(spec.variables))))
    check_tables(spec, tables)
    return tables


def _is_i64(array, *shape: int) -> bool:
    return (isinstance(array, np.ndarray) and array.dtype == np.int64
            and array.shape == shape and array.flags.c_contiguous)


def check_tables(spec, tables: PlanTables, prior=None) -> None:
    """Bounds-check lowered tables (and a prior) against the arena layout.

    Every table row must be the arena's table of that id; its axes must
    lie inside the axes table, be no more than the C odometer holds,
    name variables with the cardinality evidence is checked against and
    tile the table row-major; its run list must be increasing and inside
    it.  Every message must name the tables of a plan edge by id, with
    index maps as long as its cliques and pointing inside its separator;
    every variable's ``stride * cardinality`` blocks must tile the
    clique it names.  ``prior``, when given, must be a contiguous float64
    arena, finite, non-negative, every table summing to 1 within 1e-12.
    Raises :class:`~repro.errors.BackendError` otherwise — C walks these
    tables and copies from the prior without looking back.
    """
    def need(ok, what: str) -> None:
        if not ok:
            raise BackendError(f"native plan tables rejected: {what}")

    n_cliques, n_vars = spec.num_cliques, len(spec.variables)
    layout = list(zip(spec.clique_offsets + spec.sep_offsets,
                      spec.clique_sizes + spec.sep_sizes))
    var_table = tables.var_table
    need(_is_i64(var_table, n_vars, VAR_STRIDE),
         "variable table has the wrong shape")
    need(_is_i64(tables.tables, len(layout), TABLE_STRIDE)
         and _is_i64(tables.axes, len(tables.axes), AXIS_STRIDE)
         and len(tables.runs) == len(layout),
         "table table has the wrong shape")
    rows = tables.tables.tolist()
    axes = tables.axes.tolist()
    for t, (row, bounds) in enumerate(zip(rows, tables.runs)):
        off, size, first, n_axes, addr, count, covered = row
        need((off, size) == layout[t] and size >= 1,
             f"table {t} is not the arena's table {t}")
        need(0 <= first and 0 <= n_axes <= MAX_AXES
             and first + n_axes <= len(axes),
             f"table {t} has axes outside the axes table, or more than "
             f"{MAX_AXES}")
        tiled = 1
        for vid, stride, card in reversed(axes[first:first + n_axes]):
            need(0 <= vid < n_vars and card == var_table[vid, 2]
                 and stride == tiled,
                 f"table {t} has an axis that is not a variable's, or "
                 "strides that do not tile it")
            tiled *= card
        need(tiled == size, f"table {t} has strides that do not tile it")
        if bounds is None:
            need((addr, count, covered) == (0, 0, size),
                 f"table {t} names a run list it does not have")
            continue
        need(_is_i64(bounds, 2 * count) and count >= 1
             and bounds.ctypes.data == addr
             and 0 <= bounds[0] and bounds[-1] <= size
             and bool((np.diff(bounds) > 0).all())
             and covered == (bounds[1::2] - bounds[::2]).sum(),
             f"table {t} has a run list leaving it")

    meta = tables.meta
    need(_is_i64(meta, tables.n_messages, META_STRIDE)
         and len(tables.operands) == tables.n_messages,
         "message table has the wrong shape")
    edges = {(e.child, e.parent, n_cliques + e.sep_id)
             for e in spec.edges.values()}
    checked: set[tuple[int, int]] = set()
    for i, (row, operands) in enumerate(zip(meta.tolist(), tables.operands)):
        upward, marg_addr, abs_addr, src, dst, sep = row
        need(((src, dst, sep) if upward else (dst, src, sep)) in edges
             and rows[sep][1] <= tables.max_sep,
             f"message {i} does not name the tables of a plan edge")
        sep_size = rows[sep][1]
        for imap, addr, tid in zip(operands, (marg_addr, abs_addr),
                                   (src, dst)):
            need(_is_i64(imap, rows[tid][1]) and imap.ctypes.data == addr,
                 f"message {i} has an index map that is not its clique's")
            if (addr, sep_size) not in checked:
                need(0 <= imap.min() and imap.max() < sep_size,
                     f"message {i} has an index map leaving its separator")
                checked.add((addr, sep_size))
    for v, (tid, stride, card) in enumerate(var_table.tolist()):
        need(0 <= tid < n_cliques and stride >= 1 and card >= 1
             and rows[tid][1] % (stride * card) == 0,
             f"variable {v} does not tile the clique it names")
    if prior is None:
        return
    need(isinstance(prior, np.ndarray) and prior.dtype == np.float64
         and prior.shape == (spec.arena_entries,)
         and prior.flags.c_contiguous,
         "calibrated prior is not a contiguous float64 arena")
    need(bool(np.isfinite(prior).all()) and not (prior < 0.0).any(),
         "calibrated prior holds a negative or non-finite entry")
    for t, (off, size) in enumerate(layout):
        need(abs(prior[off:off + size].sum() - 1.0) <= 1e-12,
             f"calibrated prior table {t} does not sum to 1")


class NativeKernels(KernelBackend):
    """C-library backend: GIL-free foreign calls instead of NumPy dispatch.

    Construct via :func:`repro.exec.native.load_native_kernels` (which
    compiles/loads the library) — the registry does this lazily on first
    ``get_kernels("native")``.

    Three granularities, coarsest first:

    * :meth:`infer_cases` — a block of whole hard-evidence *cases* as
      **one** foreign call over one per-thread scratch arena
      (``FastBNI.infer`` with ``mode="seq"``, ``core.batch.infer_cases``,
      no kernel hooks recording);
    * :meth:`run_schedule` — one caller-held state's whole calibration as
      **one** foreign call over the compiled schedule
      (``run_message_schedule``: soft evidence, no hooks recording);
    * :meth:`message` / :meth:`message_batch` — one call per message, for
      one case or a case block (the property-test contract, the hooked
      trace path, ``inter`` mode, plans whose index maps are over budget).
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
        self._infer_cases = lib.fbni_infer_cases
        # Per-thread scratch (message scratch, case arena, run words) and
        # status words: the backend is a process-wide singleton and
        # thread-dispatched case blocks / per-case threads call into it
        # concurrently.
        self._local = threading.local()
        self._lowering = threading.Lock()

    def _scratch(self, sep_size: int) -> np.ndarray:
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.size < 2 * sep_size:
            buf = self._local.buf = np.empty(max(2 * sep_size, 512))
        return buf

    # ------------------------------------------------------------ whole cases
    def _case_scratch(self, *sizes: int) -> tuple:
        """This thread's whole-case scratch: a case arena, a message
        scratch and run words of at least ``sizes`` entries, and five
        status words — each its own allocation, so a sanitizer sees an
        overrun of any of them.  Returns the status array and the four
        addresses, cached (see :class:`PlanTables`)."""
        held = getattr(self._local, "case", None)
        if held is None or any(h < s for h, s in zip(held[0], sizes)):
            if held is not None:
                sizes = tuple(map(max, held[0], sizes))
            arrays = (np.empty(sizes[0]), np.empty(sizes[1]),
                      np.empty(sizes[2], dtype=np.int64),
                      np.empty(5, dtype=np.int64))
            held = self._local.case = (
                sizes, arrays, (arrays[3], *(a.ctypes.data for a in arrays)))
        return held[2]

    def infer_cases(self, plan, evidence: np.ndarray,
                    read_ids: tuple[int, ...], case_offset: int | None = None):
        """Whole hard-evidence cases in **one** foreign call.

        ``evidence`` is a ``(k, variables)`` int64 matrix of state indices
        (``-1`` = unobserved, :meth:`MessagePlan.evidence_matrix`) and
        ``read_ids`` the variable ids to read.  Returns ``(posteriors,
        log_evidence, visited)``: a fresh ``(k, entries)`` block holding
        the requested normalised marginals side by side in ``read_ids``
        order (variable *v* takes ``cardinality(v)`` columns), the
        ``(k,)`` log P(e) vector — neither aliases the scratch arena — and
        ``(entries walked, entries dense, messages run)`` summed over the
        block.  Each case runs, from the plan's calibrated prior, only the
        messages that can change a read or log P(e) (the rule is in
        ``build.py``).  ``None`` when the plan cannot be lowered (index
        maps over budget); callers then run the staged path.

        Raises :class:`EvidenceError` for impossible evidence (found
        before any read, whatever ``read_ids`` asks) and
        :class:`QueryError` for a posterior that cannot be normalised,
        naming case ``case_offset + i`` when a ``case_offset`` is given
        (batched callers) and no case otherwise.
        """
        tables = self.lowered(plan)
        if tables is None:
            return None
        spec = plan.spec
        n_vars = len(spec.variables)
        if not _is_i64(evidence, len(evidence), n_vars):
            raise BackendError(
                f"evidence must be a C-contiguous int64 (cases, {n_vars}) "
                "matrix")
        if np.count_nonzero((evidence + 1).view(np.uint64)
                            > tables.state_limits):
            raise EvidenceError(
                "evidence matrix holds a state index outside its "
                "variable's range")
        meta, table_rows, axes, var_table, reads = tables.addresses
        entries = tables.all_reads[1]
        if read_ids != plan.variable_ids():
            held, entries = reads_table(spec, read_ids)
            reads = held.ctypes.data
        prior, base = plan.prior_flat, tables.base
        if base[0] is not prior:
            check_tables(spec, tables, prior)
            base = tables.base = (prior, prior.ctypes.data)
        k = len(evidence)
        # One output block: each row is the marginals then log P(e).
        out = np.empty((k, entries + 1))
        # Run scratch: CASE_STRIDE words per table, one per message and
        # (the bound derived at fbni_evidence_runs) one per arena entry.
        n_tables = len(tables.tables)
        run_words = (CASE_STRIDE * n_tables + tables.n_messages
                     + spec.arena_entries)
        status, arena, scratch, runs, status_addr = self._case_scratch(
            spec.arena_entries, 2 * tables.max_sep, run_words)
        self._infer_cases(
            base[1], spec.num_cliques, arena, meta, tables.n_messages,
            scratch, table_rows, n_tables, axes, runs, run_words, var_table,
            n_vars, evidence.ctypes.data, k, reads, len(read_ids), spec.root,
            out.ctypes.data, entries, status_addr)
        failed, where, *visited = status.tolist()
        if failed >= 0:
            case = "" if case_offset is None else f" in case {case_offset + failed}"
            if where == RUNS_FULL:
                raise BackendError(f"native run scratch exhausted{case}")
            if where >= 0:
                raise EvidenceError(EMPTY_MESSAGE + case)
            name = plan.variable_names[read_ids[-1 - where]]
            raise QueryError(f"cannot normalise posterior of {name!r}{case} "
                             f"(total={float(out[failed, entries])})")
        return out[:, :entries], out[:, entries].copy(), tuple(visited)

    # ------------------------------------------------------ compiled schedule
    def lowered(self, plan) -> "PlanTables | None":
        """The plan's lowered tables, built and bounds-checked once with
        its calibrated prior (one compiled calibration), or ``None`` when
        its index maps exceed the cache budget."""
        tables = plan.__dict__.get("_native_schedule")
        if tables is None:
            with self._lowering:  # threads racing on a cold plan wait
                tables = plan.__dict__.get("_native_schedule")
                if tables is None:
                    tables = lower_plan(plan)
                    if tables:
                        plan.calibrate_prior(lambda state: self._run_lowered(
                            tables, plan.spec, state))
                    plan.__dict__["_native_schedule"] = tables
        return tables or None

    def run_schedule(self, plan, state):
        """Calibrate ``state`` in one foreign call; ``(messages, log_norm)``.

        ``None`` — the caller then runs the per-message loop — when the
        plan's index maps are over budget or ``state`` is not laid out as
        the plan's arena (only ``MessagePlan.fresh_state`` arenas are).
        """
        tables = self.lowered(plan)
        if tables is None:
            return None
        return self._run_lowered(tables, plan.spec, state)

    def _run_lowered(self, tables: PlanTables, spec, state):
        if tables.n_messages == 0:
            return 0, 0.0
        base = self._arena_base(spec, state)
        if base is None:
            return None
        scratch = self._scratch(tables.max_sep)
        status = np.empty(1, dtype=np.int64)
        log_norm = self._run_schedule(base, tables.addresses[0],
                                      tables.n_messages, scratch.ctypes.data,
                                      tables.addresses[1], None, None, None,
                                      status.ctypes.data)
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
            None, 0,
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
