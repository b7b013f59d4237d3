"""Compile-once message plans: one arena, one geometry, every engine.

A junction tree plus a BFS layer schedule fully determines everything a
calibration pass ever computes *about* tables (as opposed to *in* them):
which clique messages which, through which separator, in which order, and
the index geometry of each table operation.  :func:`compile_plan` derives
all of it exactly once per (tree, root) and the engines share the result:

* a flat **arena layout** — every clique and separator table gets an
  offset into one contiguous float64 buffer, in both the single-case
  (``(arena_entries,)``) and batched (``(N, table)`` blocks, table-major)
  layouts; :meth:`MessagePlan.fresh_state` / ``fresh_batch_state`` hand
  out ready-to-calibrate states whose potentials are views into it;
* per-edge :class:`EdgeGeometry` — the four stride-triple index mappings
  (the paper's formulation, chunked by the parallel engines) **and** the
  N-D sum-axes/broadcast shapes (consumed by the numpy kernel backend and
  the incremental engine, which previously derived them privately);
* the **layer schedule** flattened to plain clique-id tuples
  (``up_layers`` deepest-first, ``down_layers`` shallowest-first) and,
  from it, the **compiled message sequence**
  (:meth:`MessagePlan.compiled_layers`) every engine iterates: one
  ``(upward, src, dst, sep_id, edge, marg_map, absorb_map)`` tuple per
  message, grouped by layer, index maps attached on request (only the
  Python ``intra``/``hybrid`` modes and the primitive baseline gather);
* the cached **CPT-product base tables**, the per-edge **index-map
  cache** and (native plans) the **calibrated prior** every whole case
  starts from, so every engine sharing one tree shares one copy of each;
* one **per-variable geometry** (``PlanSpec.variables``): for each
  network variable the smallest clique holding it and its axis, stride
  and cardinality there.  Evidence reduction
  (:meth:`MessagePlan.absorb_hard_evidence` / ``absorb_evidence_batch``),
  posterior reads (:meth:`MessagePlan.read_posteriors`) and the native
  backend's whole-case call all go through it, and both paths enter
  through the same two translations from names to numbers —
  :meth:`MessagePlan.variable_ids` (targets, resolved before any table
  is touched) and :meth:`MessagePlan.evidence_matrix` (evidence, each
  finding resolved by :meth:`MessagePlan.finding`'s rule: the plan's
  label table, else ``check_evidence``).

:class:`PlanSpec` is the plain-data slice of the plan (pure ints/tuples,
no network or domain objects) — what the native backend lowers its
message, table, axes and variable tables from — while
:class:`MessagePlan` binds it to the tree and holds the lazily-built
base tables, index maps and compiled sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import EvidenceError, JunctionTreeError, QueryError
from repro.exec.kernels import StrideTriples, triples_to_map
from repro.jt.layers import LayerSchedule, compute_layers
from repro.jt.structure import BatchTreeState, JunctionTree, TreeState
from repro.potential.domain import Domain
from repro.potential.factor import Potential


def stride_triples(src: Domain, dst: Domain) -> StrideTriples:
    """Stride triples describing the src→dst flat index mapping."""
    return tuple((src.stride(v), src.card(v), dst.stride(v)) for v in dst.variables)


@dataclass(frozen=True)
class EdgeGeometry:
    """Precomputed index geometry for one tree edge (child ↔ parent).

    Carries both formulations of every message the edge ever sends:
    stride triples for the index-mapping (gather/scatter) kernels, and
    sum-axes/broadcast shapes for the N-D-view (numpy) kernels.  The
    broadcast shapes are valid because clique and separator domains are
    both ordered by network variable rank, making the separator's variable
    order a sub-order of both endpoints'.  Pure ints and tuples —
    shareable, immutable.
    """

    child: int
    parent: int
    sep_id: int
    sep_size: int
    #: collect: marginalize child clique → separator
    marg_up: StrideTriples
    #: collect: absorb ratio into parent (gather parent idx → sep idx)
    absorb_up: StrideTriples
    #: distribute: marginalize parent clique → separator
    marg_down: StrideTriples
    #: distribute: absorb ratio into child
    absorb_down: StrideTriples
    #: N-D shapes of the endpoint cliques (domain order = var-rank order)
    child_shape: tuple[int, ...]
    parent_shape: tuple[int, ...]
    #: axes of the child's N-D view summed out for child → sep
    up_axes: tuple[int, ...]
    #: axes of the parent's N-D view summed out for parent → sep
    down_axes: tuple[int, ...]
    #: separator reshaped to broadcast against the child's N-D view
    child_bshape: tuple[int, ...]
    #: separator reshaped to broadcast against the parent's N-D view
    parent_bshape: tuple[int, ...]

    def triples(self, upward: bool) -> tuple[StrideTriples, StrideTriples]:
        """The (marginalize, absorb) stride triples of one message direction."""
        if upward:
            return self.marg_up, self.absorb_up
        return self.marg_down, self.absorb_down


@dataclass(frozen=True)
class PlanSpec:
    """The plain-data message plan: geometry + schedule + arena layout.

    Everything needed to calibrate arena tables — no tree, no network, no
    domain objects.  Offsets are in float64 entries; the
    single-case arena packs cliques first then separators, and the batched
    arena uses the same offsets scaled by the case count (table-major
    ``(N, size)`` blocks).
    """

    root: int
    clique_sizes: tuple[int, ...]
    clique_shapes: tuple[tuple[int, ...], ...]
    sep_sizes: tuple[int, ...]
    #: arena offset of each clique table
    clique_offsets: tuple[int, ...]
    #: arena offset of each separator table (absolute, after the cliques)
    sep_offsets: tuple[int, ...]
    #: total clique entries (= offset of the first separator)
    clique_entries: int
    #: total arena entries (cliques + separators)
    arena_entries: int
    #: per-edge geometry keyed by child clique id
    edges: dict[int, EdgeGeometry]
    #: collect schedule: clique ids per BFS layer, deepest layer first
    up_layers: tuple[tuple[int, ...], ...]
    #: distribute schedule: clique ids per BFS layer, shallowest first
    down_layers: tuple[tuple[int, ...], ...]
    #: per network variable (id = network order): ``(clique id, axis in
    #: that clique's N-D view, stride, cardinality)`` of the smallest
    #: clique holding it — where its evidence is reduced and its
    #: posterior read.  Entry *i* of the clique has the variable in state
    #: ``(i // stride) % cardinality``.
    variables: tuple[tuple[int, int, int, int], ...]
    #: per clique / separator table: the variable ids of its axes,
    #: outermost first (tables are row-major over them)
    clique_vars: tuple[tuple[int, ...], ...]
    sep_vars: tuple[tuple[int, ...], ...]

    @property
    def num_cliques(self) -> int:
        return len(self.clique_sizes)

    @property
    def num_separators(self) -> int:
        return len(self.sep_sizes)

    @property
    def num_messages(self) -> int:
        """Messages per full calibration (one up + one down per edge)."""
        return 2 * len(self.edges)


#: What :meth:`MessagePlan.finding` finds for a name that is not a
#: variable: no label and no index matches, so ``check_evidence`` raises.
_UNKNOWN = (-1, 0, {})


class MessagePlan:
    """A compiled plan bound to its tree (see the module docstring).

    Do not construct directly — :func:`compile_plan` caches one instance
    per (tree object, root), so every engine compiled over one tree shares
    the base tables and the index-map cache.
    """

    #: Stop materialising maps past this many cached int64 entries (~400 MB).
    MAP_CACHE_LIMIT = 50_000_000

    def __init__(self, tree: JunctionTree, schedule: LayerSchedule) -> None:
        if schedule.root != tree.root:
            raise JunctionTreeError(
                f"schedule rooted at {schedule.root} does not match tree "
                f"root {tree.root}"
            )
        self.tree = tree
        self.schedule = schedule

        clique_sizes = tuple(c.size for c in tree.cliques)
        clique_shapes = tuple(
            tuple(v.cardinality for v in c.domain.variables) for c in tree.cliques
        )
        sep_sizes = tuple(s.size for s in tree.separators)
        clique_offsets: list[int] = []
        off = 0
        for size in clique_sizes:
            clique_offsets.append(off)
            off += size
        clique_entries = off
        sep_offsets: list[int] = []
        for size in sep_sizes:
            sep_offsets.append(off)
            off += size

        edges: dict[int, EdgeGeometry] = {}
        for cid in range(tree.num_cliques):
            parent = tree.parent[cid]
            if parent < 0:
                continue
            sep = tree.separators[tree.parent_sep[cid]]
            cdom, pdom = tree.cliques[cid].domain, tree.cliques[parent].domain
            sep_names = set(sep.domain.names)
            edges[cid] = EdgeGeometry(
                child=cid,
                parent=parent,
                sep_id=sep.id,
                sep_size=sep.domain.size,
                marg_up=stride_triples(cdom, sep.domain),
                absorb_up=stride_triples(pdom, sep.domain),
                marg_down=stride_triples(pdom, sep.domain),
                absorb_down=stride_triples(cdom, sep.domain),
                child_shape=clique_shapes[cid],
                parent_shape=clique_shapes[parent],
                up_axes=tuple(i for i, v in enumerate(cdom.variables)
                              if v.name not in sep_names),
                down_axes=tuple(i for i, v in enumerate(pdom.variables)
                                if v.name not in sep_names),
                child_bshape=tuple(v.cardinality if v.name in sep_names else 1
                                   for v in cdom.variables),
                parent_bshape=tuple(v.cardinality if v.name in sep_names else 1
                                    for v in pdom.variables),
            )

        variables = []
        for name in tree.net.variable_names:
            cid = tree.smallest_clique_with(name)
            dom = tree.cliques[cid].domain
            variables.append((cid, dom.axis(name), dom.stride(name),
                              dom.card(name)))
        #: Variable names in id order, and the ids by name.
        self.variable_names: tuple[str, ...] = tree.net.variable_names
        self._var_ids = {name: i for i, name in enumerate(self.variable_names)}
        self._all_ids = tuple(range(len(self.variable_names)))
        #: Per variable name: ``(id, cardinality, {label: index})``, what
        #: :meth:`finding` and :meth:`evidence_matrix` resolve a finding
        #: through.
        self._findings: dict[str, tuple] = {}
        for i, name in enumerate(self.variable_names):
            var = tree.net.variable(name)
            self._findings[name] = (i, var.cardinality, var.labels)
        #: Per variable: the axes of its clique's N-D view a posterior
        #: read sums out (all but the variable's own).
        self._sum_axes = [
            tuple(a for a in range(len(clique_shapes[cid])) if a != axis)
            for cid, axis, _, _ in variables]

        layers = schedule.clique_layers
        self.spec = PlanSpec(
            root=tree.root,
            clique_sizes=clique_sizes,
            clique_shapes=clique_shapes,
            sep_sizes=sep_sizes,
            clique_offsets=tuple(clique_offsets),
            sep_offsets=tuple(sep_offsets),
            clique_entries=clique_entries,
            arena_entries=off,
            edges=edges,
            up_layers=tuple(layers[d] for d in range(len(layers) - 1, 0, -1)),
            down_layers=tuple(layers[d] for d in range(1, len(layers))),
            variables=tuple(variables),
            clique_vars=tuple(tuple(self._var_ids[v.name]
                                    for v in c.domain.variables)
                              for c in tree.cliques),
            sep_vars=tuple(tuple(self._var_ids[v.name]
                                 for v in s.domain.variables)
                           for s in tree.separators),
        )
        #: ``(name, index)`` of the default read, every variable: where
        #: each marginal sits in a whole-case output block.
        self._all_columns = self._columns(self._all_ids)
        #: Lazily-built CPT-product clique tables (views into one flat base).
        self._base: list[np.ndarray] | None = None
        self._base_flat: np.ndarray | None = None
        #: The calibrated prior (:meth:`calibrate_prior`), or a mapped
        #: copy swapped in; the native backend checks it before C reads it.
        self.prior_flat: np.ndarray | None = None
        #: Per-(clique, separator) index-map cache; the same map serves the
        #: marginalize and absorb directions of that edge.
        self._maps: dict[tuple[int, int], np.ndarray] = {}
        self._map_entries = 0
        #: Pre-compiled message sequence as ``(layers, flat)``, keyed by
        #: whether index maps are attached (lazy).
        self._compiled: dict[bool, tuple[list[list[tuple]], list[tuple]]] = {}

    # ----------------------------------------------------------------- layout
    @property
    def arena_bytes(self) -> int:
        """Single-case arena footprint in bytes (float64 entries × 8)."""
        return 8 * self.spec.arena_entries

    @property
    def base_cliques(self) -> list[np.ndarray]:
        """CPT-product clique tables, built once and shared (views of one
        flat buffer laid out exactly like the arena's clique region)."""
        if self._base is None:
            state = TreeState(self.tree)
            flat = np.empty(self.spec.clique_entries)
            base: list[np.ndarray] = []
            for cid, pot in enumerate(state.clique_pot):
                off = self.spec.clique_offsets[cid]
                view = flat[off:off + pot.size]
                view[:] = pot.values
                base.append(view)
            self._base_flat = flat
            self._base = base
        return self._base

    @property
    def base_flat(self) -> np.ndarray:
        """The flat buffer :attr:`base_cliques` are views of — the copy
        source of every fresh arena (private, or the read-only mapped
        model file :meth:`adopt_base` swapped in)."""
        self.base_cliques
        return self._base_flat

    def adopt_base(self, flat: np.ndarray) -> None:
        """Adopt an externally-owned flat base buffer (a mapped file).

        A registry with a ``cache_dir`` serves each plan's CPT-product
        clique tables from a read-only memory map of its model file
        (:mod:`repro.service.modelfile`), so model replicas across
        processes map the *same physical pages* instead of duplicating
        them.  The buffer is only ever a copy *source* (``fresh_state``
        copies it into a private arena), so a read-only view is safe to
        adopt.
        """
        if (flat.shape != (self.spec.clique_entries,)
                or flat.dtype != np.float64 or not flat.flags.c_contiguous):
            raise ValueError(
                f"adopted base is {flat.dtype}{flat.shape}, plan needs "
                f"contiguous float64({self.spec.clique_entries},)")
        base: list[np.ndarray] = []
        for cid, clique in enumerate(self.tree.cliques):
            off = self.spec.clique_offsets[cid]
            base.append(flat[off:off + clique.size])
        self._base_flat = flat
        self._base = base

    def release_tables(self) -> None:
        """Drop the base tables and the calibrated prior, with the native
        lowering that holds the prior; all are rebuilt on next use.  A
        closed engine's plan lets go of a mapped model file this way."""
        self._base = self._base_flat = self.prior_flat = None
        self.__dict__.pop("_native_schedule", None)

    def calibrate_prior(self, calibrate) -> np.ndarray:
        """The calibrated prior, built once: a fresh state calibrated in
        place by ``calibrate(state)`` with no evidence, every clique and
        separator table then divided by its own sum (clique *C* holds
        P(C), separator *S* P(S)).  The native backend builds it when it
        lowers the plan, ``calibrate`` being one ``fbni_run_schedule``
        call over the strided loops, so no index map is built for it."""
        if self.prior_flat is None:
            state = self.fresh_state()
            calibrate(state)
            tables = [pot.values for pot in state.clique_pot + state.sep_pot]
            for values in tables:
                values /= values.sum()
            self.prior_flat = tables[0].base  # the state's one arena
        return self.prior_flat

    def fresh_state(self) -> TreeState:
        """A calibration-ready :class:`TreeState` backed by one arena.

        Clique tables start at the cached CPT products (one contiguous
        copy, not one CPT multiply per clique per inference) and
        separators at ones; every potential's values are views into a
        single ``(arena_entries,)`` buffer.
        """
        spec = self.spec
        arena = np.empty(spec.arena_entries)
        arena[:spec.clique_entries] = self.base_flat
        arena[spec.clique_entries:] = 1.0
        state = TreeState.__new__(TreeState)
        state.tree = self.tree
        state.clique_pot = [
            Potential(c.domain,
                      arena[spec.clique_offsets[c.id]:
                            spec.clique_offsets[c.id] + c.size])
            for c in self.tree.cliques
        ]
        state.sep_pot = [
            Potential(s.domain,
                      arena[spec.sep_offsets[s.id]:
                            spec.sep_offsets[s.id] + s.size])
            for s in self.tree.separators
        ]
        state.log_norm = 0.0
        return state

    def fresh_batch_state(self, n: int) -> BatchTreeState:
        """A :class:`BatchTreeState` for ``n`` cases backed by one arena.

        Table-major layout: table *t* occupies the contiguous
        ``(n, size_t)`` block at ``n * offset_t``, so a case block is a
        row slice of every table.
        """
        if n < 1:
            raise JunctionTreeError(f"batch needs at least one case, got {n}")
        spec = self.spec
        base = self.base_cliques
        buf = np.empty(n * spec.arena_entries)
        state = BatchTreeState.__new__(BatchTreeState)
        state.tree = self.tree
        state.n = n
        clique_pot: list[np.ndarray] = []
        for cid, size in enumerate(spec.clique_sizes):
            off = n * spec.clique_offsets[cid]
            view = buf[off:off + n * size].reshape(n, size)
            view[:] = base[cid]
            clique_pot.append(view)
        sep_pot: list[np.ndarray] = []
        for sid, size in enumerate(spec.sep_sizes):
            off = n * spec.sep_offsets[sid]
            view = buf[off:off + n * size].reshape(n, size)
            view.fill(1.0)
            sep_pot.append(view)
        state.clique_pot = clique_pot
        state.sep_pot = sep_pot
        state.log_norm = np.zeros(n)
        return state

    # ------------------------------------------------------------- index maps
    def index_map(self, clique_id: int, sep_id: int,
                  triples: StrideTriples) -> np.ndarray | None:
        """Cached clique→separator flat index map, or ``None`` over budget.

        The mapping depends only on table shapes — never on evidence — so
        one map per (clique, separator) pair serves both message
        directions of that edge forever.  Once the cache would exceed
        :attr:`MAP_CACHE_LIMIT` entries no further maps are materialised
        and consumers run the mixed-radix arithmetic on the fly.
        """
        key = (clique_id, sep_id)
        cached = self._maps.get(key)
        if cached is not None:
            return cached
        size = self.spec.clique_sizes[clique_id]
        if self._map_entries + size > self.MAP_CACHE_LIMIT:
            return None
        imap = triples_to_map(size, triples)
        self._maps[key] = imap
        self._map_entries += size
        return imap

    def message_maps(self, edge: EdgeGeometry, upward: bool
                     ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The (marginalize, absorb) maps for one message direction."""
        child_map = self.index_map(edge.child, edge.sep_id, edge.marg_up)
        parent_map = self.index_map(edge.parent, edge.sep_id, edge.absorb_up)
        return (child_map, parent_map) if upward else (parent_map, child_map)

    # -------------------------------------------------------- evidence/queries
    def variable_ids(self, targets: tuple[str, ...] = ()) -> tuple[int, ...]:
        """Variable ids of ``targets`` (every variable when empty), in
        order, duplicates dropped.

        Both the staged and the whole-case native path resolve their
        targets here *before* any table is touched, so an unknown name
        raises :class:`~repro.errors.QueryError` at the price of a dict
        lookup, never of a calibration.
        """
        if not targets:
            return self._all_ids
        try:
            return tuple(dict.fromkeys(self._var_ids[name] for name in targets))
        except KeyError as exc:
            raise QueryError(f"unknown variable {exc.args[0]!r}") from None

    def finding(self, name: str, state: str | int) -> tuple[int, int]:
        """``(variable id, state index)`` of one hard finding.

        A label (``str``) or an in-range ``int`` index is resolved through
        the plan's per-variable table; any other finding — a NumPy
        integer, an unknown variable or state — goes through
        :func:`repro.jt.evidence.check_evidence`, which accepts it or
        raises its ``EvidenceError``.
        """
        vid, card, labels = self._findings.get(name, _UNKNOWN)
        kind = type(state)
        index = (labels.get(state) if kind is str else
                 state if kind is int and 0 <= state < card else
                 None)
        if index is None:
            from repro.jt.evidence import check_evidence

            index = check_evidence(self.tree, {name: state})[name]
        return vid, index

    def evidence_matrix(self, cases: list[dict[str, str | int]]) -> np.ndarray:
        """``(cases, variables)`` int64 matrix of observed state indices.

        ``-1`` marks an unobserved variable.  Each finding is resolved as
        :meth:`finding` resolves it (a label or in-range ``int`` through
        the table, inlined here: a call per finding cost ~6 % of a
        256-case pathfinder batch's CPU), so whatever consumes the
        matrix — the batched reduction below, the native whole-case
        call — only ever sees in-range states.  Each finding is one store
        through a memoryview (no NumPy scalar assignment, no index
        lists).
        """
        n_vars = len(self.variable_names)
        matrix = np.full((len(cases), n_vars), -1, dtype=np.int64)
        flat, row = memoryview(matrix.reshape(-1)), 0
        findings = self._findings
        for evidence in cases:
            for name, state in evidence.items():
                vid, card, labels = findings.get(name, _UNKNOWN)
                kind = type(state)
                index = (labels.get(state) if kind is str else
                         state if kind is int and 0 <= state < card else
                         None)
                if index is None:
                    vid, index = self.finding(name, state)
                flat[row + vid] = index
            row += n_vars
        return matrix

    def absorb_hard_evidence(self, state: TreeState,
                             evidence: dict[str, str | int]) -> None:
        """Reduce the chosen clique tables in place (zeroing mode).

        Bit-identical to :func:`repro.jt.evidence.absorb_evidence`
        (zeroing an entry and multiplying it by a 0/1 mask agree exactly
        in float64), but through the plan's per-variable geometry: the
        clique table viewed as ``(blocks, cardinality, stride)`` has the
        variable on its middle axis.  Findings are encoded as
        :meth:`evidence_matrix` does, which raises
        :class:`~repro.errors.EvidenceError` on unknown variables/states.
        """
        states = self.evidence_matrix([evidence])[0]
        observed = np.flatnonzero(states >= 0)
        for vid, idx in zip(observed.tolist(), states[observed].tolist()):
            cid, _, stride, card = self.spec.variables[vid]
            table = state.clique_pot[cid].values.reshape(-1, card, stride)
            table[:, :idx] = 0.0
            table[:, idx + 1:] = 0.0

    def absorb_evidence_batch(self, state: BatchTreeState,
                              cases: list[dict[str, str | int]]) -> None:
        """Absorb one evidence dict per case row, vectorised per variable.

        The batched analogue of :meth:`absorb_hard_evidence`: all cases
        observing a variable are reduced together with one
        ``(k, 1, cardinality, 1)`` mask multiply over their rows of the
        clique table.  Cases may observe different variable sets.
        """
        if len(cases) != state.n:
            raise EvidenceError(
                f"batch state holds {state.n} cases but {len(cases)} "
                "evidence dicts were given"
            )
        matrix = self.evidence_matrix(cases)
        observed = matrix >= 0
        for vid in np.flatnonzero(observed.any(axis=0)):
            cid, _, stride, card = self.spec.variables[vid]
            rows = np.flatnonzero(observed[:, vid])
            keep = np.arange(card) == matrix[rows, vid, None]
            table = state.clique_pot[cid].reshape(state.n, -1, card, stride)
            table[rows] *= keep[:, None, :, None]

    def read_posteriors(self, state: TreeState,
                        targets: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
        """Posteriors off a calibrated state through precompiled reads.

        Bit-identical to :func:`repro.jt.query.all_posteriors` (same N-D
        sums, same normalisation) without per-query domain algebra or
        Potential temporaries.
        """
        shapes = self.spec.clique_shapes
        out: dict[str, np.ndarray] = {}
        for vid in self.variable_ids(targets):
            name = self.variable_names[vid]
            cid = self.spec.variables[vid][0]
            axes = self._sum_axes[vid]
            values = state.clique_pot[cid].values
            marg = values.reshape(shapes[cid]).sum(axis=axes) if axes else values
            total = float(marg.sum())
            if total <= 0.0 or not math.isfinite(total):
                raise QueryError(
                    f"cannot normalise posterior of {name!r} (total={total})")
            out[name] = marg / total
        return out

    def posterior_views(self, read_ids: tuple[int, ...],
                        block: np.ndarray) -> dict[str, np.ndarray]:
        """Name the columns of a whole-case output block.

        ``block`` holds the marginals of ``read_ids`` side by side along
        its last axis (one row, or ``(cases, entries)`` —
        :meth:`NativeKernels.infer_cases
        <repro.exec.native.backend.NativeKernels.infer_cases>`); returns
        ``{variable name: view of its columns}``.
        """
        columns = (self._all_columns if read_ids is self._all_ids
                   else self._columns(read_ids))
        return {name: block[index] for name, index in columns}

    def _columns(self, read_ids) -> list[tuple[str, tuple]]:
        columns, lo = [], 0
        for vid in read_ids:
            hi = lo + self.spec.variables[vid][3]
            columns.append((self.variable_names[vid], (..., slice(lo, hi))))
            lo = hi
        return columns

    def _compile(self, maps: bool) -> tuple[list[list[tuple]], list[tuple]]:
        compiled = self._compiled.get(maps)
        if compiled is None:
            spec = self.spec
            layers = []
            for upward, schedule in ((True, spec.up_layers),
                                     (False, spec.down_layers)):
                for layer in schedule:
                    messages = []
                    for cid in layer:
                        edge = spec.edges[cid]
                        src, dst = ((cid, edge.parent) if upward
                                    else (edge.parent, cid))
                        m_marg, m_abs = (self.message_maps(edge, upward)
                                         if maps else (None, None))
                        messages.append((upward, src, dst, edge.sep_id, edge,
                                         m_marg, m_abs))
                    layers.append(messages)
            compiled = self._compiled[maps] = (
                layers, [m for layer in layers for m in layer])
        return compiled

    def compiled_layers(self, maps: bool = False) -> list[list[tuple]]:
        """The full calibration as map-prefetched messages, one list per layer.

        One ``(upward, src, dst, sep_id, edge, marg_map, absorb_map)``
        tuple per message; collect layers first (deepest inward) then
        distribute layers (root outward), every layer a barrier and all
        of a layer's messages sharing ``upward``.  Built once per plan:
        every engine — the kernel backends' schedule loop and the parallel
        modes alike — then runs with zero per-message plan lookups, the
        compile-once counterpart of the paper's "only touch table values
        at inference time".  Both map slots stay ``None`` (no table-sized
        map is built) unless ``maps=True``, which only the callers that
        gather through index maps pass (the ``intra``/``hybrid`` modes and
        the primitive baseline); a map slot is also ``None`` once the
        cache budget is spent.
        """
        return self._compile(maps)[0]

    def compiled_messages(self, maps: bool = False) -> list[tuple]:
        """:meth:`compiled_layers` flattened to one message sequence."""
        return self._compile(maps)[1]

    def stats(self) -> dict[str, float]:
        """Plan-level statistics (surfaced by ``info``/CLI)."""
        return {
            "plan_arena_bytes": float(self.arena_bytes),
            "plan_messages": float(self.spec.num_messages),
            "plan_map_entries": float(self._map_entries),
        }


def compile_plan(tree: JunctionTree,
                 schedule: LayerSchedule | None = None) -> MessagePlan:
    """The shared :class:`MessagePlan` for ``tree`` under its current root.

    Cached on the tree object keyed by root, so engines compiled over one
    tree (warm starts, incremental engines) share one plan — one set of
    base tables, one map cache.
    """
    cache: dict[int, MessagePlan] = tree.__dict__.setdefault("_exec_plans", {})
    plan = cache.get(tree.root)
    if plan is None:
        plan = MessagePlan(tree, schedule if schedule is not None
                           else compute_layers(tree))
        cache[tree.root] = plan
    return plan
