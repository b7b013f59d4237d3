"""The ``native`` kernel backend: cases execute outside the interpreter.

:class:`NativeKernels` implements the :class:`~repro.exec.kernels.
KernelBackend` contract over the C library of
:mod:`repro.exec.native.build`, at three granularities (coarsest first:
whole cases, whole schedules, single messages — see the class), every
one of them the same strided message body.  Two properties follow that
no NumPy formulation has:

* **one foreign call per case block** — :meth:`NativeKernels.infer_cases`
  runs the messages a case's evidence and reads need over the entries
  its evidence leaves free (observed axes pinned, the plan's calibrated
  prior read in place), reads the requested posteriors and computes
  log P(e) for a block of cases inside one call, so ``FastBNI.infer``
  and ``core.batch.infer_cases`` pay no per-message and no
  per-variable Python work, traced or not;
* **GIL release** — ``ctypes`` drops the GIL for the duration of every
  foreign call, so thread-dispatched case blocks genuinely overlap on
  separate cores instead of time-slicing one interpreter.

Everything C walks is lowered once per plan from plain
:class:`~repro.exec.plan.PlanSpec` data into flat int64 tables
(:func:`lower_plan`; no index map is built) and bounds-checked against
the arena in Python (:func:`check_tables`, which also checks the
calibrated prior) before C first reads them; evidence matrices and read
ids are range-checked per call, and a single message's tables against
its edge.  C never sees an offset, size, loop row, state index or prior
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
from repro.exec.kernels import KernelBackend
from repro.exec.native.build import (AXIS_STRIDE, BLOCK, CASE_STRIDE,
                                     DIM_STRIDE, MAX_AXES, META_STRIDE,
                                     TABLE_STRIDE, VAR_STRIDE)

EMPTY_MESSAGE = "evidence has zero probability (empty message)"
#: The most bytes a table-major block arena (``BLOCK`` cases) may take:
#: a plan whose arena is larger than ``BLOCK_BYTES / BLOCK`` runs every
#: case case-major.
BLOCK_BYTES = 1 << 20


@dataclass(eq=False)
class PlanTables:
    """One plan lowered to the flat int64 tables the C runners walk."""

    #: ``(n_messages, META_STRIDE)`` compiled schedule (layout in build.py).
    meta: np.ndarray
    n_messages: int
    #: Largest separator: the C message scratch holds ``2 * max_sep``.
    max_sep: int
    #: ``(cliques + separators, TABLE_STRIDE)`` per-table geometry, in
    #: arena order, and the ``(axes, AXIS_STRIDE)`` rows it points into.
    tables: np.ndarray
    axes: np.ndarray
    #: ``(rows, DIM_STRIDE)`` slots of the strided loops of every edge's
    #: cliques and separator against its separator, nothing pinned
    #: (:func:`message_loops`).
    loops: np.ndarray
    #: ``(n_vars, VAR_STRIDE)`` per-variable geometry (layout in build.py).
    var_table: np.ndarray
    #: The default read, every variable: ``(reads table, row entries)``.
    all_reads: tuple[np.ndarray, int]
    #: Derived, so that a 0.1 ms call takes no ``ndarray.ctypes`` it need
    #: not.  Cardinality per variable, unsigned: a state (or -1) is in
    #: range iff ``state + 1``, reinterpreted as unsigned, does not
    #: exceed it.
    state_limits: np.ndarray = field(init=False)
    #: Addresses of ``meta``, ``tables``, ``axes``, ``loops``,
    #: ``var_table``, reads.
    addresses: tuple[int, ...] = field(init=False)
    #: Doubles of a table-major block's message and read scratch.
    block_scratch: int = field(init=False)
    #: The plan's prior last checked and handed to C, and its address;
    #: one attribute, so threads swap it whole.
    base: tuple = (None, 0)

    def __post_init__(self) -> None:
        self.state_limits = self.var_table[:, 2].astype(np.uint64)
        self.block_scratch = BLOCK * max(
            2 * self.max_sep, int(self.var_table[:, 2].max(initial=1)))
        self.addresses = tuple(a.ctypes.data for a in (
            self.meta, self.tables, self.axes, self.loops, self.var_table,
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


def table_loop(axes, target) -> list[tuple[int, int, int]]:
    """A table's strided loop against a target table, nothing pinned:
    its axes (``(variable id, stride, cardinality)`` rows, outermost
    first) as ``(count, stride, target stride)`` rows, the target stride
    0 where the target lacks the variable, adjacent axes merged where
    they stay contiguous in both tables (the rule ``pin()`` in
    ``build.py`` applies to the axes a case leaves free)."""
    strides = {vid: stride for vid, stride, _ in target}
    dims: list[tuple[int, int, int]] = []
    for vid, stride, card in axes:
        tstride = strides.get(vid, 0)
        if dims and dims[-1][1:] == (stride * card, tstride * card):
            dims[-1] = (dims[-1][0] * card, stride, tstride)
        else:
            dims.append((card, stride, tstride))
    return dims


def message_loops(ends, rows, axes) -> tuple[np.ndarray, list[tuple]]:
    """The loop slots of every message's src and dst clique and its
    separator (``ends``: their table ids) against the separator — one
    slot per (table, separator) pair: a head row ``(loop rows, 0, 0)``,
    then the loop with nothing pinned in room for as many rows as the
    table has axes, zeros after it — and per message the first rows of
    its three slots."""
    def axes_of(t):
        return axes[rows[t][2]:rows[t][2] + rows[t][3]]

    flat: list[int] = []  # DIM_STRIDE words a row
    at: dict[tuple[int, int], int] = {}
    words = []
    for src, dst, sep in ends:
        for table in (src, dst, sep):
            if (table, sep) not in at:
                loop = table_loop(axes_of(table), axes_of(sep))
                at[table, sep] = len(flat) // DIM_STRIDE
                flat += (len(loop), 0, 0)
                for row in loop:
                    flat += row
                flat += (0, 0, 0) * (rows[table][3] - len(loop))
        words.append((at[src, sep], at[dst, sep], at[sep, sep]))
    return (np.array(flat, dtype=np.int64).reshape(-1, DIM_STRIDE), words)


def lower_plan(plan) -> PlanTables:
    """Lower ``plan`` to :class:`PlanTables`, bounds-checked."""
    spec = plan.spec
    cards = [card for _, _, _, card in spec.variables]
    axes, rows = [], []
    for off, size, var_ids in zip(spec.clique_offsets + spec.sep_offsets,
                                  spec.clique_sizes + spec.sep_sizes,
                                  spec.clique_vars + spec.sep_vars):
        first, stride = len(axes), size
        for vid in var_ids:
            # A one-state axis cannot be pinned and moves no stride.
            if cards[vid] > 1:
                stride //= cards[vid]
                axes.append((vid, stride, cards[vid]))
        rows.append((off, size, first, len(axes) - first))
    msgs = [(int(upward), src, dst, spec.num_cliques + sep_id)
            for upward, src, dst, sep_id, *_ in
            plan.compiled_messages(maps=False)]
    loops, words = message_loops([m[1:] for m in msgs], rows, axes)
    tables = PlanTables(
        meta=np.array([m + w for m, w in zip(msgs, words)],
                      dtype=np.int64).reshape(len(msgs), META_STRIDE),
        n_messages=len(msgs), max_sep=max(spec.sep_sizes, default=0),
        tables=np.array(rows, dtype=np.int64).reshape(len(rows),
                                                      TABLE_STRIDE),
        axes=np.array(axes, dtype=np.int64).reshape(len(axes), AXIS_STRIDE),
        loops=loops,
        var_table=np.array(
            [(cid, stride, card) for cid, _, stride, card in spec.variables],
            dtype=np.int64).reshape(len(spec.variables), VAR_STRIDE),
        all_reads=reads_table(spec, range(len(spec.variables))))
    check_tables(spec, tables)
    return tables


def edge_rows(edge, upward: bool) -> tuple[np.ndarray, tuple, tuple]:
    """The loop rows ``fbni_message`` walks for one message of ``edge``:
    its source clique, destination clique and separator, each against
    the separator with nothing pinned, back to back — and the three row
    counts and table sizes.  Derived from the edge's N-D shapes and
    summed axes: a separator axis is named by its position in the
    separator, a summed-out axis by a negative id no separator axis has
    (:func:`table_loop`)."""
    ends = [(edge.child_shape, edge.up_axes),
            (edge.parent_shape, edge.down_axes)]
    if not upward:
        ends.reverse()
    sep_shape = tuple(card for a, card in enumerate(ends[0][0])
                      if a not in ends[0][1])
    tables = (*ends, (sep_shape, ()))

    def axes(shape, summed):
        kept = [a for a in range(len(shape)) if a not in summed]
        rows, stride = [], math.prod(shape)
        for a, card in enumerate(shape):
            stride //= card
            if card > 1:
                rows.append((kept.index(a) if a in kept else -1 - a,
                             stride, card))
        return rows

    sep = axes(sep_shape, ())
    loops = [table_loop(axes(*table), sep) for table in tables]
    flat = np.array([row for loop in loops for row in loop],
                    dtype=np.int64).reshape(-1, DIM_STRIDE)
    return (flat, tuple(map(len, loops)),
            tuple(math.prod(shape) for shape, _ in tables))


def _is_i64(array, *shape: int) -> bool:
    return (isinstance(array, np.ndarray) and array.dtype == np.int64
            and array.shape == shape and array.flags.c_contiguous)


def _is_f64(array, size: int) -> bool:
    return (isinstance(array, np.ndarray) and array.dtype == np.float64
            and array.size == size and array.flags.c_contiguous)


def check_tables(spec, tables: PlanTables, prior=None) -> None:
    """Bounds-check lowered tables (and a prior) against the arena layout.

    Every table row must be the arena's table of that id; its axes must
    lie inside the axes table, be no more than the C odometer holds,
    name distinct variables in increasing id order with the cardinality
    evidence is checked against and tile the table row-major.  Every
    message must name the tables of a plan edge by id, a separator whose
    variables both cliques hold, and the loop rows :func:`message_loops`
    derives from those axes; the variable rows must be the plan's.
    ``prior``, when given, must be a contiguous float64 arena, finite,
    non-negative, every table summing to 1 within 1e-12.  Raises
    :class:`~repro.errors.BackendError` otherwise — C walks these tables
    and reads the prior without looking back.
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
         and _is_i64(tables.axes, len(tables.axes), AXIS_STRIDE),
         "table table has the wrong shape")
    rows = tables.tables.tolist()
    axes = tables.axes.tolist()
    need(var_table.tolist() == [[cid, stride, card] for cid, _, stride, card
                                in spec.variables],
         "variable table is not the plan's")
    table_vars = []
    for t, (off, size, first, n_axes) in enumerate(rows):
        need((off, size) == layout[t] and size >= 1,
             f"table {t} is not the arena's table {t}")
        need(0 <= first and 0 <= n_axes <= MAX_AXES
             and first + n_axes <= len(axes),
             f"table {t} has axes outside the axes table, or more than "
             f"{MAX_AXES}")
        tiled, var_ids = 1, [vid for vid, _, _ in axes[first:first + n_axes]]
        need(var_ids == sorted(set(var_ids)),
             f"table {t} has axes out of variable order")
        for vid, stride, card in reversed(axes[first:first + n_axes]):
            need(0 <= vid < n_vars and card == var_table[vid, 2] > 1
                 and stride == tiled,
                 f"table {t} has an axis that is not a variable's, or "
                 "strides that do not tile it")
            tiled *= card
        need(tiled == size, f"table {t} has strides that do not tile it")
        table_vars.append(var_ids)

    meta = tables.meta
    need(_is_i64(meta, tables.n_messages, META_STRIDE),
         "message table has the wrong shape")
    edges = {(e.child, e.parent, n_cliques + e.sep_id)
             for e in spec.edges.values()}
    meta_rows = meta.tolist()
    for i, (upward, src, dst, sep, *_) in enumerate(meta_rows):
        need(((src, dst, sep) if upward else (dst, src, sep)) in edges
             and rows[sep][1] <= tables.max_sep
             and set(table_vars[sep]) <= set(table_vars[src])
             & set(table_vars[dst]),
             f"message {i} does not name the tables of a plan edge")
    loops, words = message_loops([row[1:4] for row in meta_rows], rows,
                                 axes)
    need(_is_i64(tables.loops, *loops.shape)
         and np.array_equal(tables.loops, loops)
         and [tuple(row[4:]) for row in meta_rows] == words,
         "loop rows are not the ones the axes give")
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
      **one** foreign call over per-thread scratch
      (``FastBNI.infer`` with ``mode="seq"``, ``core.batch.infer_cases``,
      traced or not);
    * :meth:`run_schedule` — one caller-held state's whole calibration as
      **one** foreign call over the compiled schedule
      (``run_message_schedule``: soft evidence, the prior at lowering);
    * :meth:`message` — one call per message (the property-test
      contract, ``inter`` mode).
    """

    name = "native"
    #: The strided loops read no index map.
    wants_maps = False
    #: run_message_schedule may delegate whole calibrations to run_schedule.
    compiles_schedule = True
    #: Engines may delegate whole hard-evidence cases to infer_cases.
    compiles_cases = True

    def __init__(self, lib, library_path) -> None:
        self._lib = lib
        self.library_path = str(library_path)
        self._message = lib.fbni_message
        self._run_schedule = lib.fbni_run_schedule
        self._infer_cases = lib.fbni_infer_cases
        # Per-thread scratch (message scratch, case arena, case words, the
        # block arena and its scratch) and status words: the backend is a
        # process-wide singleton and thread-dispatched case blocks /
        # per-case threads call into it concurrently.
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
        scratch and case words of at least ``sizes`` entries, and five
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

    def _block_scratch(self, entries: int, scratch: int) -> tuple[int, int]:
        """This thread's table-major block arena (``entries`` doubles)
        and block scratch (``scratch``), each its own allocation, made on
        the first full block this thread runs and grown as needed;
        returns their addresses."""
        held = getattr(self._local, "block", None)
        if held is None or held[0].size < entries or held[1].size < scratch:
            if held is not None:
                entries = max(entries, held[0].size)
                scratch = max(scratch, held[1].size)
            held = self._local.block = (np.empty(entries), np.empty(scratch))
        return held[0].ctypes.data, held[1].ctypes.data

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
        block.

        Cases run case-major: each from the plan's calibrated prior, over
        the entries its evidence leaves free, running only the messages
        that can change a read or log P(e) (the rule is in ``build.py``).
        When ``k >= BLOCK`` and ``BLOCK`` copies of the plan's arena fit
        in :data:`BLOCK_BYTES`, every full block of ``BLOCK`` cases
        instead runs table-major over this thread's block arena: every
        message of the schedule once for the block, dense, each entry
        step ``BLOCK`` cases wide.  Such a block counts every message
        for each of its cases, and walks as many entries as it would
        dense (``entries walked == entries dense`` for it); the cases
        left over run case-major.  Both give the same answers to
        rounding.

        Raises :class:`EvidenceError` for impossible evidence (found
        before any read, whatever ``read_ids`` asks) and
        :class:`QueryError` for a posterior that cannot be normalised,
        naming case ``case_offset + i`` when a ``case_offset`` is given
        (batched callers) and no case otherwise.
        """
        tables = self.lowered(plan)
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
        meta, table_rows, axes, loops, var_table, reads = tables.addresses
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
        # Case words: CASE_STRIDE per table, one per message, and a copy
        # of the loop table.
        n_tables = len(tables.tables)
        status, arena, scratch, words, status_addr = self._case_scratch(
            spec.arena_entries, 2 * tables.max_sep,
            CASE_STRIDE * n_tables + tables.n_messages + tables.loops.size)
        block = block_scratch = 0
        if k >= BLOCK and self.case_block(plan) == BLOCK:
            block, block_scratch = self._block_scratch(
                BLOCK * spec.arena_entries, tables.block_scratch)
        self._infer_cases(
            base[1], spec.num_cliques, arena, meta, tables.n_messages,
            scratch, table_rows, n_tables, axes, loops, words, var_table,
            n_vars, evidence.ctypes.data, k, reads, len(read_ids), spec.root,
            out.ctypes.data, entries, block, block_scratch, status_addr)
        failed, where, *visited = status.tolist()
        if failed >= 0:
            case = "" if case_offset is None else f" in case {case_offset + failed}"
            if where >= 0:
                raise EvidenceError(EMPTY_MESSAGE + case)
            name = plan.variable_names[read_ids[-1 - where]]
            raise QueryError(f"cannot normalise posterior of {name!r}{case} "
                             f"(total={float(out[failed, entries])})")
        return out[:, :entries], out[:, entries].copy(), tuple(visited)

    @staticmethod
    def case_block(plan) -> int:
        """Cases one table-major block of ``plan`` runs: ``BLOCK`` when
        ``BLOCK`` copies of its arena fit in :data:`BLOCK_BYTES`, else 1
        (every case case-major)."""
        return BLOCK if BLOCK * plan.arena_bytes <= BLOCK_BYTES else 1

    # ------------------------------------------------------ compiled schedule
    def lowered(self, plan) -> PlanTables:
        """The plan's lowered tables, built and bounds-checked once with
        its calibrated prior (one compiled calibration)."""
        tables = plan.__dict__.get("_native_schedule")
        if tables is None:
            with self._lowering:  # threads racing on a cold plan wait
                tables = plan.__dict__.get("_native_schedule")
                if tables is None:
                    tables = lower_plan(plan)
                    plan.calibrate_prior(lambda state: self._run_lowered(
                        tables, plan.spec, state))
                    plan.__dict__["_native_schedule"] = tables
        return tables

    def run_schedule(self, plan, state):
        """Calibrate ``state`` in one foreign call; ``(messages, log_norm)``.

        ``None`` — the caller then runs the per-message loop — when
        ``state`` is not laid out as the plan's arena (only
        ``MessagePlan.fresh_state`` arenas are).
        """
        return self._run_lowered(self.lowered(plan), plan.spec, state)

    def _run_lowered(self, tables: PlanTables, spec, state):
        if tables.n_messages == 0:
            return 0, 0.0
        base = self._arena_base(spec, state)
        if base is None:
            return None
        scratch = self._scratch(tables.max_sep)
        status = np.empty(1, dtype=np.int64)
        meta, table_rows, _, loops, *_ = tables.addresses
        log_norm = self._run_schedule(base, meta, tables.n_messages,
                                      scratch.ctypes.data, table_rows, loops,
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

    # --------------------------------------------------------- single messages
    def _edge_rows(self, edge, upward: bool) -> tuple:
        """``edge_rows`` of one message direction as ``(rows array, rows
        address, row counts, table sizes)``, derived once per edge and kept
        on it (the geometry is frozen, so its ``__dict__`` is written
        directly)."""
        held = edge.__dict__.get("_native_rows")
        if held is None:
            held = []
            for direction in (False, True):
                flat, counts, sizes = edge_rows(edge, direction)
                held.append((flat, flat.ctypes.data, counts, sizes))
            edge.__dict__["_native_rows"] = held
        return held[upward]

    def message(self, src, dst, sep, edge, upward, maps=(None, None)):
        _, rows, counts, sizes = self._edge_rows(edge, upward)
        if not all(_is_f64(a, size) for a, size in zip((src, dst, sep),
                                                        sizes)):
            raise BackendError(
                "message tables must be C-contiguous float64 of sizes "
                f"{sizes}, their edge's")
        scratch = self._scratch(edge.sep_size)
        total = self._message(src.ctypes.data, dst.ctypes.data,
                              sep.ctypes.data, rows, *counts, edge.sep_size,
                              scratch.ctypes.data)
        if total <= 0.0:
            raise EvidenceError(EMPTY_MESSAGE)
        return math.log(total)
