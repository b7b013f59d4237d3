"""The message kernels: one place where a junction-tree message executes.

Fast-BNI's profiling argument (paper §1) is that fine-grained engines lose
to "large parallelization overhead since the table operations are invoked
frequently" — table ops are small, so fixed per-invocation cost dominates.
Before this module existed the repo re-derived those table operations in
four places; now every engine funnels through the primitives here, and a
speedup to a kernel lands everywhere at once.

Two layers:

* **Primitive functions** — ``gather_*`` (the paper-faithful index-mapping
  formulation: flat maps, ``bincount`` scatter, fancy-index gather) and
  ``nd_*`` (NumPy reshape/sum/broadcast over the N-D view).  Each comes in
  a single-case and an ``(N, table)`` batched form, and the gather pair
  also in an entry-*range* form (``marg_chunk``/``absorb_chunk``) — the
  unit the parallel modes dispatch.  :mod:`repro.potential.ops` wraps
  these.

* **Kernel backends** — a :class:`KernelBackend` executes one whole Hugin
  message (marginalize → normalize → ratio → absorb) over arena tables:

  - ``numpy``: the textbook NumPy reference — reshape the flat tables to
    their N-D views, ``sum`` out axes to marginalize, broadcast-multiply
    to absorb.  Clean, obviously-correct, and per-invocation expensive:
    every call re-pays NumPy's reduction/broadcast setup, the exact
    per-table-operation overhead the paper profiles;
  - ``fused``: each message executes as **one fused kernel invocation
    over the flat arena** — a single ``bincount`` scatter pass through
    the plan's precomputed index map (marginalize) and a single
    fancy-index gather pass (absorb), with the whole message sequence
    pre-compiled by the plan (:meth:`repro.exec.plan.MessagePlan.
    compiled_messages`) so the hot loop touches no domain algebra, no
    shape bookkeeping and no per-op dispatch.  This is the paper's
    compile-time-index-map amortisation carried to its end point.

  - ``native``: the same fused message executed by **one C call outside
    the interpreter** (:mod:`repro.exec.native`) — compiled on first use
    with the system C compiler into a content-hash-cached ``.so`` and
    invoked through ``ctypes``, which releases the GIL for the duration
    of every call (thread-dispatched case blocks overlap on real cores)
    and, per message, skips zero blocks of the CPT-product base tables
    via per-plan run lists.  It also advertises ``compiles_cases``:
    engines hand it whole hard-evidence cases (evidence reduction,
    schedule, posterior reads, log P(e)) as one call per case block,
    walked as strided loops with no map or run list, instead of driving
    messages.  When no C compiler is available, selecting ``native``
    falls back to ``fused`` with a logged reason; ``info``/``stats``
    then honestly report the active backend as ``fused``.

  All backends are bit-compatible to float64 round-off (the property
  suites pin 1e-12 agreement over random and degenerate geometries).
  ``fused`` is the library default (``FastBNIConfig.kernels``);
  ``native`` is the serving default (``query`` / ``serve`` / ``cluster``
  ``--kernels``) and what ``bench/`` times, and ``BENCH_ablation.json``
  ranks what each backend buys at service level.

Backends are per-process singletons resolved lazily from one registry;
select one with :func:`get_kernels`.  ``KERNELS`` is derived from that
registry, so the advertised names and the resolvable names can't drift.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from repro.errors import BackendError, EvidenceError
from repro.obs.trace import current_kernel_hooks

logger = logging.getLogger(__name__)

#: per destination variable: (stride in src domain, cardinality, stride in dst)
StrideTriples = tuple[tuple[int, int, int], ...]

#: Flattened-bincount cutover: above this many (case, entry) pairs the
#: shifted int64 index temp would rival the batch table itself, so the
#: batched marginalization falls back to one bincount per case row.
FLAT_BINCOUNT_LIMIT = 1 << 22


def triples_to_map(size: int, triples: StrideTriples, lo: int = 0) -> np.ndarray:
    """Materialise the flat source→destination index map from stride triples
    (mixed-radix arithmetic), for source entries ``[lo, size)``."""
    idx = np.arange(lo, size, dtype=np.int64)
    out = np.zeros(size - lo, dtype=np.int64)
    for s_src, card, s_dst in triples:
        out += ((idx // s_src) % card) * s_dst
    return out


# ------------------------------------------------------------ gather (indexmap)
def gather_marginalize(values: np.ndarray, imap: np.ndarray,
                       dst_size: int) -> np.ndarray:
    """Marginalize one flat table through its index map (bincount scatter)."""
    return np.bincount(imap, weights=values, minlength=dst_size)


def gather_absorb(values: np.ndarray, msg: np.ndarray,
                  imap: np.ndarray) -> None:
    """In-place ``values *= extend(msg)`` through the index map (gather)."""
    values *= msg[imap]


def chunk_dst_indices(lo: int, hi: int, triples: StrideTriples,
                      imap: np.ndarray | None = None) -> np.ndarray:
    """Destination indices of source entries ``[lo, hi)`` (the index mapping).

    A view slice of the plan's cached map when there is one; otherwise
    (map budget spent) the mixed-radix arithmetic runs on the fly.
    """
    if imap is not None:
        return imap[lo:hi]
    return triples_to_map(hi, triples, lo)


def marg_chunk(values: np.ndarray, lo: int, hi: int, triples: StrideTriples,
               dst_size: int, imap: np.ndarray | None = None) -> np.ndarray:
    """Partial marginalization of ``values[lo:hi]`` into destination space.

    Chunks of one table return *partial* tables the master sums, keeping
    workers write-disjoint.
    """
    return gather_marginalize(values[lo:hi],
                              chunk_dst_indices(lo, hi, triples, imap), dst_size)


def absorb_chunk(values: np.ndarray, lo: int, hi: int,
                 updates: tuple[tuple[StrideTriples, np.ndarray | None, np.ndarray], ...],
                 ) -> None:
    """``values[lo:hi] *= prod_k extend(ratio_k)[lo:hi]`` (write-disjoint).

    ``updates`` carries one (stride triples, cached map or ``None``, ratio
    vector) per pending message into this table, so several children
    updating one parent in a layer cost one pass.
    """
    seg = values[lo:hi]
    for triples, imap, ratio in updates:
        gather_absorb(seg, ratio, chunk_dst_indices(lo, hi, triples, imap))


def gather_marginalize_batch(values: np.ndarray, imap: np.ndarray,
                             dst_size: int,
                             flat_limit: int = FLAT_BINCOUNT_LIMIT) -> np.ndarray:
    """Batched marginalization: ``(k, src)`` rows → ``(k, dst)`` messages.

    One C-level bincount over the case-shifted flat map while the shifted
    index temp stays affordable (``flat_limit``); per-row bincounts beyond.
    """
    k, size = values.shape
    if k * size <= flat_limit:
        shifted = imap[None, :] + (np.arange(k, dtype=np.int64) * dst_size)[:, None]
        flat = np.bincount(shifted.ravel(), weights=values.ravel(),
                           minlength=k * dst_size)
        return flat.reshape(k, dst_size)
    out = np.empty((k, dst_size))
    for i in range(k):
        out[i] = np.bincount(imap, weights=values[i], minlength=dst_size)
    return out


def gather_absorb_batch(values: np.ndarray, msg: np.ndarray,
                        imap: np.ndarray) -> None:
    """Batched in-place ``values *= extend(msg)``: one 2-D fancy-index gather."""
    values *= msg[:, imap]


# --------------------------------------------------------------- ndview (fused)
def nd_marginalize(values: np.ndarray, shape: tuple[int, ...],
                   drop_axes: tuple[int, ...]) -> np.ndarray:
    """Marginalize one flat table by summing the dropped axes of its N-D view."""
    if not drop_axes:
        return values.copy()
    return values.reshape(shape).sum(axis=drop_axes).reshape(-1)


def nd_absorb(values: np.ndarray, msg: np.ndarray, shape: tuple[int, ...],
              bshape: tuple[int, ...]) -> None:
    """In-place ``values *= msg`` where ``bshape`` broadcasts msg over shape.

    ``bshape`` keeps the message variables' cardinalities and sets every
    other axis to 1 — valid whenever the message's variable order is a
    sub-order of the table's (the junction-tree compile guarantees this).
    """
    values.reshape(shape)[...] *= msg.reshape(bshape)


def nd_marginalize_batch(values: np.ndarray, shape: tuple[int, ...],
                         drop_axes: tuple[int, ...]) -> np.ndarray:
    """Batched N-D marginalization: sum the (1-shifted) dropped axes."""
    k = values.shape[0]
    if not drop_axes:
        return values.copy()
    axes = tuple(a + 1 for a in drop_axes)
    return np.ascontiguousarray(
        values.reshape((k,) + tuple(shape)).sum(axis=axes).reshape(k, -1))


# ---------------------------------------------------------------------- ratios
def ratio_vector(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Separator update ``new/old`` with the JT convention ``x/0 = 0``."""
    out = np.zeros_like(new)
    np.divide(new, old, out=out, where=old != 0)
    return out


def resolve_maps(src: np.ndarray, dst: np.ndarray, edge, upward: bool,
                 maps: tuple[np.ndarray | None, np.ndarray | None],
                 ) -> tuple[np.ndarray, np.ndarray]:
    """A message's (marginalize, absorb) maps, building any the plan left out."""
    m_marg, m_abs = maps
    if m_marg is None or m_abs is None:
        marg, absorb = edge.triples(upward)
        if m_marg is None:
            m_marg = triples_to_map(src.shape[-1], marg)
        if m_abs is None:
            m_abs = triples_to_map(dst.shape[-1], absorb)
    return m_marg, m_abs


def _normalize_batch(new_sep: np.ndarray, case_offset: int) -> np.ndarray:
    """Row-normalise a ``(k, sep)`` message block; returns per-row log totals."""
    totals = new_sep.sum(axis=1)
    bad = np.flatnonzero(~(totals > 0.0))
    if bad.size:
        raise EvidenceError(
            "evidence has zero probability (empty message) in case "
            f"{case_offset + bad[0]}"
        )
    new_sep /= totals[:, None]
    return np.log(totals)


# -------------------------------------------------------------------- backends
class KernelBackend:
    """One whole Hugin message over arena tables (see the module docstring).

    ``message``/``message_batch`` marginalize ``src`` onto the separator,
    normalise (scaled propagation), divide by the old separator, absorb
    the ratio into ``dst`` and overwrite the separator in place, returning
    the log normalisation constant(s).  ``maps`` optionally carries the
    cached ``(marginalize, absorb)`` index maps; gather-based backends
    (``fused``) advertise ``wants_maps = True`` so callers prefetch them,
    while ndview backends (``numpy``) advertise ``False`` so callers skip
    building maps they would never read.
    """

    name = "abstract"
    #: Whether this backend consumes precomputed flat index maps.
    wants_maps = False

    def message(self, src: np.ndarray, dst: np.ndarray, sep: np.ndarray,
                edge, upward: bool,
                maps: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
                ) -> float:
        raise NotImplementedError

    def message_batch(self, src: np.ndarray, dst: np.ndarray, sep: np.ndarray,
                      edge, upward: bool,
                      maps: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
                      case_offset: int = 0) -> np.ndarray:
        raise NotImplementedError


class NumpyKernels(KernelBackend):
    """Textbook NumPy reference: N-D views, axis sums, broadcast multiplies.

    One reduction/broadcast *setup* per table operation — the baseline the
    fused backend is measured against (the ``fused_kernels`` row of
    ``BENCH_ablation.json``).
    """

    name = "numpy"
    wants_maps = False

    def message(self, src, dst, sep, edge, upward, maps=(None, None)):
        if upward:
            src_shape, drop = edge.child_shape, edge.up_axes
            dst_shape, bshape = edge.parent_shape, edge.parent_bshape
        else:
            src_shape, drop = edge.parent_shape, edge.down_axes
            dst_shape, bshape = edge.child_shape, edge.child_bshape
        new_sep = nd_marginalize(src, src_shape, drop)
        total = float(new_sep.sum())
        if total <= 0.0:
            raise EvidenceError("evidence has zero probability (empty message)")
        new_sep /= total
        ratio = ratio_vector(new_sep, sep)
        nd_absorb(dst, ratio, dst_shape, bshape)
        sep[:] = new_sep
        return math.log(total)

    def message_batch(self, src, dst, sep, edge, upward, maps=(None, None),
                      case_offset=0):
        k = src.shape[0]
        if upward:
            src_shape, drop = edge.child_shape, edge.up_axes
            dst_shape, bshape = edge.parent_shape, edge.parent_bshape
        else:
            src_shape, drop = edge.parent_shape, edge.down_axes
            dst_shape, bshape = edge.child_shape, edge.child_bshape
        new_sep = nd_marginalize_batch(src, src_shape, drop)
        log_totals = _normalize_batch(new_sep, case_offset)
        ratio = np.zeros_like(new_sep)
        np.divide(new_sep, sep, out=ratio, where=sep != 0)
        dst.reshape((k,) + tuple(dst_shape))[...] *= ratio.reshape((k,) + tuple(bshape))
        sep[:] = new_sep
        return log_totals


class FusedKernels(KernelBackend):
    """Fused flat-arena backend: one scatter + one gather pass per message.

    Consumes the plan's precomputed index maps (falling back to on-the-fly
    mixed-radix arithmetic when the map budget is spent) and never touches
    N-D views, so the per-message cost is two single-pass C loops plus the
    tiny separator arithmetic.

    The separator update uses ``new / (old + (old == 0))`` instead of a
    masked divide: during propagation zeros only ever *grow* (a killed
    separator entry zeroes the matching clique entries, so later marginals
    stay zero there), hence ``old == 0`` implies ``new == 0`` and the two
    forms are bit-identical — while the unmasked divide skips NumPy's slow
    ``where=`` path.  This invariant holds for calibration states (fresh
    tables, zeroing evidence); callers feeding arbitrary tables get the
    convention only where the invariant does.
    """

    name = "fused"
    wants_maps = True

    def message(self, src, dst, sep, edge, upward, maps=(None, None)):
        m_marg, m_abs = resolve_maps(src, dst, edge, upward, maps)
        new_sep = gather_marginalize(src, m_marg, edge.sep_size)
        total = float(new_sep.sum())
        if total <= 0.0:
            raise EvidenceError("evidence has zero probability (empty message)")
        new_sep /= total
        ratio = new_sep / (sep + (sep == 0.0))
        gather_absorb(dst, ratio, m_abs)
        sep[:] = new_sep
        return math.log(total)

    def message_batch(self, src, dst, sep, edge, upward, maps=(None, None),
                      case_offset=0):
        m_marg, m_abs = resolve_maps(src, dst, edge, upward, maps)
        new_sep = gather_marginalize_batch(src, m_marg, edge.sep_size)
        log_totals = _normalize_batch(new_sep, case_offset)
        ratio = new_sep / (sep + (sep == 0.0))
        gather_absorb_batch(dst, ratio, m_abs)
        sep[:] = new_sep
        return log_totals


def _make_native() -> KernelBackend:
    """Build the native backend, degrading to ``fused`` when it can't.

    The fallback returns the *fused singleton itself*, so ``engine.
    kernels.name`` (surfaced by ``info``/``stats``/trace spans) reports
    the backend actually executing messages, never the one requested.
    """
    from repro.exec.native import load_native_kernels

    backend, reason = load_native_kernels()
    if backend is None:
        logger.warning(
            "native kernel backend unavailable (%s); falling back to fused",
            reason)
        return get_kernels("fused")
    return backend


#: The pluggable backend registry: name -> zero-arg factory.  Instances
#: are built lazily (``native`` compiles a C library on first use) and
#: cached per process in ``_INSTANCES``.
_FACTORIES = {
    "fused": FusedKernels,
    "numpy": NumpyKernels,
    "native": _make_native,
}
_INSTANCES: dict[str, KernelBackend] = {}

#: Selectable backend names (CLI/service ``--kernels`` values) — derived
#: from the registry so the advertised and resolvable names never drift.
KERNELS = tuple(_FACTORIES)


def get_kernels(name: str) -> KernelBackend:
    """Resolve a kernel-backend name from the registry (lazily built).

    ``"native"`` resolves to the fused singleton (with a logged reason)
    when no C compiler is available — callers always get a working
    backend whose ``.name`` states what actually runs.
    """
    backend = _INSTANCES.get(name)
    if backend is None:
        try:
            factory = _FACTORIES[name]
        except KeyError:
            known = ", ".join(sorted(_FACTORIES))
            raise BackendError(
                f"unknown kernel backend {name!r}; available backends: {known}"
            ) from None
        backend = _INSTANCES[name] = factory()
    return backend


def run_message_schedule(plan, state, backend: KernelBackend,
                         hooks=None) -> int:
    """Full two-phase calibration of ``state`` via ``backend``.

    The single-case execution loop shared by the sequential engine: walks
    the plan's compiled message sequence — collect layers (tracking the
    normalisation constants in ``state.log_norm``) then distribute layers
    (constants dropped), one :meth:`KernelBackend.message` per edge per
    phase.  Returns the number of messages executed.

    ``hooks`` (or, when absent, the thread's recorder installed by
    :func:`repro.obs.trace.install_kernel_hooks`) receives per-message
    timings plus an end-of-run summary (backend name, message count,
    arena bytes) — how a sampled request's trace sees inside the kernel
    layer.  With no recorder active the loop is untouched: one
    thread-local read per call.
    """
    if hooks is None:
        hooks = current_kernel_hooks()
    if hooks is None and getattr(backend, "compiles_schedule", False):
        # Schedule-compiling backends (native) run the whole calibration
        # as one GIL-free foreign call when nothing needs per-message
        # visibility; None means this plan/state can't take the fast path.
        done = backend.run_schedule(plan, state)
        if done is not None:
            messages, log_norm = done
            state.log_norm += log_norm
            return messages
    cliques = [p.values for p in state.clique_pot]
    seps = [p.values for p in state.sep_pot]
    log_norm = 0.0
    send = backend.message
    timer = time.perf_counter
    run_start = timer() if hooks is not None else 0.0
    if hooks is not None:
        def send(*args, _send=backend.message):  # noqa: F811
            t0 = timer()
            out = _send(*args)
            hooks.on_message(args[4], timer() - t0)
            return out

    # The pre-compiled sequence: maps prefetched for the backends that
    # gather, zero per-message plan lookups.  Skip-consuming backends
    # (native) additionally get each endpoint's nonzero-run list so
    # structurally-zero blocks of the base tables cost nothing.
    compiled = plan.compiled_messages(maps=backend.wants_maps)
    skips = (plan.zero_skip_runs()
             if getattr(backend, "wants_skips", False) else None)
    for upward, src, dst, sep_id, edge, m_marg, m_abs in compiled:
        if skips is None:
            log_total = send(cliques[src], cliques[dst], seps[sep_id],
                             edge, upward, (m_marg, m_abs))
        else:
            log_total = send(cliques[src], cliques[dst], seps[sep_id],
                             edge, upward, (m_marg, m_abs),
                             (skips[src], skips[dst]))
        if upward:
            log_norm += log_total
    messages = len(compiled)
    state.log_norm += log_norm
    if hooks is not None:
        hooks.on_schedule(backend=backend.name, messages=messages,
                          seconds=timer() - run_start,
                          arena_bytes=getattr(plan, "arena_bytes", None))
    return messages
