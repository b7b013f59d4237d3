"""Incremental evidence-delta recalibration over a compiled junction tree.

Why this exists
---------------
A full two-phase calibration per query is wasted when consecutive
queries against one network differ by a single finding (the service
answers every case whole; this is a library engine for callers that
hold one evolving evidence set).  The layered message-passing schedule (:mod:`repro.jt.layers`)
makes the *unaffected-subtree skip* cheap to state: a message only changes
if something on its input side changed, so an evidence delta that touches
one branch of the tree leaves every other branch's messages bit-for-bit
valid.

Architecture
------------
Hugin propagation (:mod:`repro.jt.calibrate`) overwrites clique tables in
place, which makes evidence *retraction* impossible to express (zeroed
entries cannot be divided back).  This module therefore keeps a
Shenoy-Shafer-style state over the same compiled tree, consuming the
shared execution plan (:func:`repro.exec.plan.compile_plan`) for its
per-edge sum-axes/broadcast geometry and the cached CPT-product base
tables — the same :class:`~repro.exec.plan.EdgeGeometry` every other
engine reads:

* per clique, the **local potential** ``psi_c`` = cached CPT product
  (shared, never mutated) times the clique's current evidence mask;
* per tree edge, the two **directed messages** ``up[c]`` (child ``c`` to
  its parent) and ``down[c]`` (parent to ``c``), each stored normalised
  with a scalar log-scale so ``log P(e)`` stays exact;
* per-edge **validity flags**: messages are recomputed lazily, only when a
  query needs them and only if an evidence delta invalidated them.

On :meth:`IncrementalEngine.update` the engine diffs the evidence plans
(:func:`repro.jt.evidence.evidence_plan`), rebuilds the *dirty* cliques'
local potentials (one mask multiply each), and invalidates exactly:

* every ``up`` message on a path from a dirty clique to the root (their
  input subtrees contain dirt);
* every ``down`` message except those on the path from the root to the
  lowest common ancestor of the dirty cliques (those are the only edges
  whose entire input side — everything *outside* their subtree — is
  clean).

A subsequent posterior query then revalidates only the messages its
target clique actually depends on; a query touching the clean side of the
tree after a one-finding delta recomputes a handful of messages instead
of ``2(n-1)``.

Consistency contract: posteriors and ``log P(e)`` agree with a cold full
calibration (:class:`repro.core.FastBNI` or
:class:`repro.jt.engine.JunctionTreeEngine`) to float64 round-off under
arbitrary add/retract/change sequences; ``tests/test_incremental.py``
pins 1e-12 agreement on the bundled networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import EvidenceError, QueryError
from repro.exec.engine_api import INCREMENTAL_ENGINE
from repro.exec.plan import compile_plan
from repro.jt.engine import InferenceResult
from repro.jt.evidence import check_evidence, evidence_delta, evidence_plan
from repro.jt.structure import JunctionTree
from repro.potential.index_map import consistency_mask

#: Consistency-mask memo cap per engine: (clique, evidence-group) pairs are
#: few on real traffic, but unbounded keys could leak under adversarial
#: evidence churn.
_MASK_CACHE_LIMIT = 512


@dataclass(frozen=True)
class EvidenceDelta:
    """The difference between two evidence sets, as the engine applied it.

    ``added``/``retracted``/``changed`` name the findings (``changed`` =
    same variable, different observed state); ``dirty_cliques`` lists the
    clique ids whose local potential was rebuilt.  ``size`` is the edit
    count — the natural x-axis of the incremental benchmark.
    """

    added: tuple[str, ...]
    retracted: tuple[str, ...]
    changed: tuple[str, ...]
    dirty_cliques: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.added) + len(self.retracted) + len(self.changed)


class IncrementalEngine:
    """Exact inference with delta recalibration (see the module docstring).

    Parameters
    ----------
    tree:
        A compiled :class:`~repro.jt.structure.JunctionTree`.  The engine
        never re-roots it; the rooted topology in place at construction
        time defines the message directions for the engine's lifetime.
    evidence:
        Initial evidence (state labels or indices).  The constructor only
        *records* it — no propagation happens until the first query, so
        constructing (and discarding) states is nearly free.

    Failure modes: :class:`~repro.errors.EvidenceError` for unknown
    variables/states or zero-probability evidence (raised from the query
    that first needs the impossible message, not from :meth:`update`);
    :class:`~repro.errors.QueryError` for unknown target variables.  After
    an :class:`EvidenceError` the state stays usable — the next
    :meth:`update` to feasible evidence recomputes what it invalidated.
    """

    #: Capability flags the service layers dispatch on.
    capabilities = INCREMENTAL_ENGINE

    def __init__(self, tree: JunctionTree,
                 evidence: dict[str, str | int] | None = None) -> None:
        self.tree = tree
        #: The shared execution plan: per-edge ndview geometry + cached
        #: CPT products, compiled once per (tree, root) and shared with
        #: every other engine over this tree.
        self.plan = compile_plan(tree)
        spec = self.plan.spec
        #: The plan's CPT-product clique tables (shared, immutable).
        self._base: list[np.ndarray] = self.plan.base_cliques
        n = tree.num_cliques
        #: N-D shape of each clique table (domain order = var-rank order).
        self._cshape: tuple[tuple[int, ...], ...] = spec.clique_shapes
        #: Per-edge geometry keyed by child clique id (None for the root).
        self._edges = [spec.edges.get(cid) for cid in range(n)]
        #: (clique id, summed axes) for single-variable posterior reads.
        self._var_axes: dict[str, tuple[int, tuple[int, ...]]] = {}
        #: psi_c: base product x current evidence mask.  Shares the base
        #: array for evidence-free cliques; rebuilt (fresh array) on delta.
        self._local: list[np.ndarray] = list(self._base)
        self._up: list[np.ndarray | None] = [None] * n
        self._down: list[np.ndarray | None] = [None] * n
        self._up_lz = [0.0] * n
        self._down_lz = [0.0] * n
        self._up_valid = [False] * n
        self._down_valid = [False] * n
        #: (values, log-scale) per clique; cleared on every dirty update.
        self._belief: list[tuple[np.ndarray, float] | None] = [None] * n
        #: Cliques with a cached belief, in build order — lets
        #: :meth:`log_evidence` reuse whatever belief a posterior read
        #: just built instead of always paying for the root's product.
        self._belief_cids: list[int] = []
        #: Idempotent memo of consistency masks keyed by
        #: (clique id, sorted evidence-group items); shared across clones.
        self._masks: dict[tuple, np.ndarray] = {}
        self._evidence: dict[str, int] = {}
        self._plan: dict[int, dict[str, int]] = {}
        #: Work counters since construction (updates, cliques_rebuilt,
        #: up_recomputed, down_recomputed, beliefs) — the delta-size
        #: metrics surfaced by the service cache.
        self.counters: dict[str, int] = {
            "updates": 0, "cliques_rebuilt": 0,
            "up_recomputed": 0, "down_recomputed": 0, "beliefs": 0,
        }
        if evidence:
            self.update(evidence)

    # ----------------------------------------------------------------- state
    @property
    def name(self) -> str:
        return "incremental"

    @property
    def evidence(self) -> dict[str, int]:
        """The index-normalised evidence the state currently represents."""
        return dict(self._evidence)

    def close(self) -> None:
        """Nothing to release (no pools, no shared memory); protocol hook."""

    def __enter__(self) -> "IncrementalEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def validate_case(self, evidence: dict | None = None,
                      soft_evidence: dict | None = None) -> None:
        """Protocol hook: check a request's evidence without applying it."""
        check_evidence(self.tree, dict(evidence or {}))
        if soft_evidence:
            raise EvidenceError(
                "the incremental engine expresses hard evidence only "
                "(soft likelihoods cannot be retracted from a zeroing mask)"
            )

    def clone(self) -> "IncrementalEngine":
        """An independent state sharing all immutable arrays (O(cliques)).

        Message and local arrays are replaced — never mutated — by
        recomputation, so the clone and the original can diverge freely;
        only the idempotent mask memo stays shared.
        """
        other = object.__new__(IncrementalEngine)
        other.tree = self.tree
        other.plan = self.plan
        other._base = self._base
        other._cshape = self._cshape
        other._edges = self._edges
        other._var_axes = self._var_axes
        other._local = list(self._local)
        other._up = list(self._up)
        other._down = list(self._down)
        other._up_lz = list(self._up_lz)
        other._down_lz = list(self._down_lz)
        other._up_valid = list(self._up_valid)
        other._down_valid = list(self._down_valid)
        other._belief = list(self._belief)
        other._belief_cids = list(self._belief_cids)
        other._masks = self._masks
        other._evidence = dict(self._evidence)
        other._plan = {cid: dict(g) for cid, g in self._plan.items()}
        other.counters = dict(self.counters)
        return other

    def resident_bytes(self) -> int:
        """Estimated bytes owned by this state (messages + rebuilt locals).

        Clones share arrays, so summing over clones over-counts; the
        service cache uses this as an upper bound for its byte budget.
        """
        total = 0
        for arr in self._up:
            if arr is not None:
                total += arr.nbytes
        for arr in self._down:
            if arr is not None:
                total += arr.nbytes
        for cid, local in enumerate(self._local):
            if local is not self._base[cid]:
                total += local.nbytes
        for cached in self._belief:
            if cached is not None:
                total += cached[0].nbytes
        return total

    # ---------------------------------------------------------------- update
    def update(self, evidence: dict[str, str | int] | None = None) -> EvidenceDelta:
        """Switch the state to ``evidence`` (the full new set, not a diff).

        Rebuilds dirty cliques and invalidates the affected messages; does
        **no** propagation itself (queries pay only for what they read).
        Returns the :class:`EvidenceDelta` that was applied.  Unknown
        variables or states raise :class:`~repro.errors.EvidenceError`
        before any state is touched.
        """
        tree = self.tree
        ev = check_evidence(tree, dict(evidence or {}))
        new_plan = evidence_plan(tree, ev)
        dirty = sorted(
            cid for cid in set(new_plan) | set(self._plan)
            if new_plan.get(cid) != self._plan.get(cid)
        )
        added, retracted, changed = evidence_delta(self._evidence, ev)
        delta = EvidenceDelta(added, retracted, changed, tuple(dirty))
        self._evidence, self._plan = ev, new_plan
        if not dirty:
            return delta
        self.counters["updates"] += 1
        for cid in dirty:
            group = new_plan.get(cid)
            if group:
                self._local[cid] = self._base[cid] * self._mask(cid, group)
            else:
                self._local[cid] = self._base[cid]
            self.counters["cliques_rebuilt"] += 1
        # Up messages: anything with dirt below it is stale.  Invalidation
        # always walks to the root, so "invalid implies ancestors invalid"
        # holds and the walk may stop at the first already-invalid edge.
        root = tree.root
        for cid in dirty:
            x = cid
            while x != root and self._up_valid[x]:
                self._up_valid[x] = False
                x = tree.parent[x]
        # Down messages: down[c] depends on everything OUTSIDE subtree(c),
        # so it survives iff subtree(c) still contains every dirty clique —
        # exactly the cliques on the root -> LCA(dirty) path.
        top = dirty[0]
        for cid in dirty[1:]:
            top = self._lca(top, cid)
        allowed = set()
        x = top
        while x != root:
            allowed.add(x)
            x = tree.parent[x]
        for cid in range(tree.num_cliques):
            if cid != root and cid not in allowed:
                self._down_valid[cid] = False
        self._belief = [None] * tree.num_cliques
        self._belief_cids = []
        return delta

    def _lca(self, a: int, b: int) -> int:
        depth, parent = self.tree.depth, self.tree.parent
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a, b = parent[a], parent[b]
        return a

    def _mask(self, cid: int, group: dict[str, int]) -> np.ndarray:
        key = (cid, tuple(sorted(group.items())))
        mask = self._masks.get(key)
        if mask is None:
            mask = consistency_mask(self.tree.cliques[cid].domain, group)
            if len(self._masks) < _MASK_CACHE_LIMIT:
                self._masks[key] = mask
        return mask

    # -------------------------------------------------------------- messages
    def _product_at(self, cid: int, exclude_child: int = -1,
                    include_down: bool = True) -> tuple[np.ndarray, float]:
        """N-D product of ``psi_cid`` with its valid incoming messages.

        ``exclude_child`` leaves one child's up message out (the
        Shenoy-Shafer rule for the message *toward* that child);
        ``include_down=False`` leaves out the parent's down message (for
        the up message toward the parent).  Returns the product (a view of
        ``local`` when nothing multiplies in) and the accumulated message
        log-scale.
        """
        tree = self.tree
        pot = self._local[cid].reshape(self._cshape[cid])
        acc: np.ndarray | None = None
        lz = 0.0
        if include_down and cid != tree.root:
            edge = self._edges[cid]
            msg = self._down[cid].reshape(edge.child_bshape)
            acc = pot * msg
            lz += self._down_lz[cid]
        for child, _sep in tree.children[cid]:
            if child == exclude_child:
                continue
            msg = self._up[child].reshape(self._edges[child].parent_bshape)
            if acc is None:
                acc = pot * msg
            else:
                acc *= msg
            lz += self._up_lz[child]
        return (pot if acc is None else acc), lz

    def _normalize(self, values: np.ndarray, cid: int) -> tuple[np.ndarray, float]:
        total = float(values.sum())
        if total <= 0.0:
            raise EvidenceError(
                "evidence has zero probability (empty message at clique "
                f"{cid})"
            )
        return values.reshape(-1) / total, math.log(total)

    def _recompute_up(self, cid: int) -> None:
        edge = self._edges[cid]
        pot, lz = self._product_at(cid, include_down=False)
        marg = pot.sum(axis=edge.up_axes) if edge.up_axes else pot
        values, log_total = self._normalize(marg, cid)
        self._up[cid] = values
        self._up_lz[cid] = lz + log_total
        self._up_valid[cid] = True
        self.counters["up_recomputed"] += 1

    def _recompute_down(self, cid: int) -> None:
        edge = self._edges[cid]
        parent = self.tree.parent[cid]
        pot, lz = self._product_at(parent, exclude_child=cid)
        marg = pot.sum(axis=edge.down_axes) if edge.down_axes else pot
        values, log_total = self._normalize(marg, cid)
        self._down[cid] = values
        self._down_lz[cid] = lz + log_total
        self._down_valid[cid] = True
        self.counters["down_recomputed"] += 1

    def _ensure_up(self, cid: int) -> None:
        """Make ``up[cid]`` valid, recomputing stale descendants first.

        Iterative post-order over the *invalid* region only ("invalid
        implies ancestors invalid" bounds the walk); recursion would
        overflow on 1000-clique chain networks.
        """
        if self._up_valid[cid]:
            return
        stack: list[tuple[int, bool]] = [(cid, False)]
        while stack:
            node, expanded = stack.pop()
            if self._up_valid[node]:
                continue
            if expanded:
                self._recompute_up(node)
            else:
                stack.append((node, True))
                for child, _sep in self.tree.children[node]:
                    if not self._up_valid[child]:
                        stack.append((child, False))

    def _ensure_down(self, cid: int) -> None:
        """Make ``down[cid]`` valid (no-op for the root, which has none)."""
        tree = self.tree
        if cid == tree.root:
            return
        chain: list[int] = []
        x = cid
        while x != tree.root and not self._down_valid[x]:
            chain.append(x)
            x = tree.parent[x]
        for node in reversed(chain):
            parent = tree.parent[node]
            for sibling, _sep in tree.children[parent]:
                if sibling != node:
                    self._ensure_up(sibling)
            self._recompute_down(node)

    def _clique_belief(self, cid: int) -> tuple[np.ndarray, float]:
        """Unnormalised ``P(C, e)``-proportional table plus its log-scale."""
        cached = self._belief[cid]
        if cached is not None:
            return cached
        tree = self.tree
        for child, _sep in tree.children[cid]:
            self._ensure_up(child)
        self._ensure_down(cid)
        pot, lz = self._product_at(cid)
        self._belief[cid] = (pot, lz)
        self._belief_cids.append(cid)
        self.counters["beliefs"] += 1
        return self._belief[cid]

    # ---------------------------------------------------------------- queries
    def posterior(self, name: str) -> np.ndarray:
        """``P(name | evidence)``, revalidating only the messages it needs."""
        tree = self.tree
        plan = self._var_axes.get(name)
        if plan is None:
            if name not in tree.net:
                raise QueryError(f"unknown variable {name!r}")
            cid = tree.smallest_clique_with(name)
            dom = tree.cliques[cid].domain
            axes = tuple(i for i, v in enumerate(dom.variables) if v.name != name)
            plan = self._var_axes[name] = (cid, axes)
        cid, axes = plan
        values, _lz = self._clique_belief(cid)
        marg = values.reshape(self._cshape[cid]).sum(axis=axes) if axes else values
        marg = marg.reshape(-1)
        total = float(marg.sum())
        if total == 0.0:
            # An impossible evidence set can surface as an all-zero belief
            # without any message going empty (the contradiction may sit
            # entirely inside one rebuilt clique); classify it like
            # calibration would.
            raise EvidenceError(
                "evidence has zero probability (all-zero belief at clique "
                f"{cid})")
        if total < 0.0 or not np.isfinite(total):
            raise QueryError(
                f"cannot normalise posterior of {name!r} (total={total})")
        return marg / total

    def posteriors(self, targets: tuple[str, ...] = (),
                   evidence: dict | None = None) -> dict[str, np.ndarray]:
        """Posteriors for ``targets`` (default: every network variable).

        ``evidence`` (when given) switches the state first via
        :meth:`update`; omitted, the current evidence state is read.
        """
        if evidence is not None:
            self.update(evidence)
        names = targets or self.tree.net.variable_names
        return {name: self.posterior(name) for name in names}

    def log_evidence(self) -> float:
        """``log P(evidence)``; ``-inf`` for impossible evidence.

        ``P(C, e)`` summed over *any* clique is ``P(e)``, so this reuses
        a belief a posterior read already built for the current evidence
        state before paying for the root's full message product — the
        common "posteriors then log P(e)" read pair costs one belief.
        """
        if self._belief_cids:
            values, lz = self._belief[self._belief_cids[0]]
        else:
            values, lz = self._clique_belief(self.tree.root)
        total = float(values.sum())
        if total <= 0.0:
            return -math.inf
        return lz + math.log(total)

    def infer(self, evidence: dict[str, str | int] | None = None,
              targets: tuple[str, ...] = ()) -> InferenceResult:
        """Drop-in ``infer``: :meth:`update` + read posteriors and log P(e).

        ``meta`` carries ``delta_size`` and ``dirty_cliques`` so callers
        (the service cache, the benchmark) can report how much of the tree
        the query actually touched.
        """
        delta = self.update(evidence)
        return InferenceResult(
            posteriors=self.posteriors(targets),
            log_evidence=self.log_evidence(),
            meta={"delta_size": float(delta.size),
                  "dirty_cliques": float(len(delta.dirty_cliques))},
        )

    def infer_batch(self, cases,
                    targets: tuple[str, ...] = ()) -> list[InferenceResult]:
        """Protocol hook: chain the cases through this state's delta path.

        The incremental engine has no vectorised case axis — its batch
        form is sequential chaining, which is exactly where it shines when
        consecutive cases overlap.
        """
        from repro.core.batch import case_evidence, case_soft_evidence

        results = []
        for case in cases:
            if case_soft_evidence(case):
                raise EvidenceError(
                    "the incremental engine expresses hard evidence only")
            results.append(self.infer(case_evidence(case), targets))
        return results

    def recalibrate(self) -> None:
        """Force every message valid (one full sweep's worth of work).

        Useful before :meth:`clone` fan-out: descendants then share fully
        valid messages and pay only for their own deltas.
        """
        tree = self.tree
        order = tree.bfs_order()
        for cid in reversed(order):
            if cid != tree.root:
                self._ensure_up(cid)
        for cid in order:
            if cid != tree.root:
                self._ensure_down(cid)

    def stats(self) -> dict[str, float]:
        """Tree statistics plus this state's work counters."""
        s = self.tree.stats()
        s.update({k: float(v) for k, v in self.counters.items()})
        s["resident_bytes"] = float(self.resident_bytes())
        return s
