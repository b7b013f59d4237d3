"""Compiled-model registry: load once, keep hot, evict under a byte budget.

A serving process answers many queries against few networks, so the
expensive, query-independent work — parsing the network, compiling the
junction tree, multiplying CPTs into clique tables, building index maps,
calibrating the no-evidence baseline — is paid once per model and kept
resident.  Entries are LRU-ordered and evicted when the estimated resident
bytes exceed the registry budget, so a long-lived server can rotate
through more models than fit in memory.

Four name forms resolve, in order:

* a name injected programmatically via :meth:`ModelRegistry.register`;
* a bundled dataset name (``asia``, ``cancer``, ``sprinkler``);
* a paper-network analog name (``hailfinder`` … ``munin4``), built at the
  laptop-feasible ``bench`` scale;
* a filesystem path to a ``.bif`` file.

A load resolves the network once and triangulates it once, with the
engine's own heuristic (:func:`~repro.jt.structure.compile_cliques`).
The :class:`~repro.approx.QueryPlanner` prices that triangulation's
cliques before any table exists: a network whose junction-tree tables
exceed the registry's engine-policy threshold loads as a resident
:class:`~repro.approx.ApproxBNI` sampling engine instead of failing (or
thrashing the LRU) on an exponential exact compile, and an exact engine
is built from those same cliques.  Exact and approximate residencies of
the same network coexist under distinct keys (``name`` vs
``name@approx``), so an explicit ``engine="approx"`` request never evicts
the exact entry.

With a ``cache_dir``, each exact model's base tables (and, on native
kernels, its calibrated prior) are served from one read-only model file
there (:mod:`repro.service.modelfile`), named by a digest of everything
its bytes depend on: processes sharing the directory share the tables
through the page cache, a restart skips building them, an edited model
can never be served from an old file, and an unreadable or incompatible
file falls back to a fresh compile.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.approx.engine import ApproxBNI, ApproxInferenceResult
from repro.approx.planner import POLICIES, PlanDecision, QueryPlanner
from repro.bn.network import BayesianNetwork
from repro.bn.repository import resolve_network
from repro.core.batch import BatchedFastBNI
from repro.core.config import FastBNIConfig
from repro.errors import NetworkError, PlannerError
from repro.exec.engine_api import CAPABILITIES_BY_KIND
from repro.jt.structure import compile_cliques, tree_from_cliques
from repro.service.cache import InferenceCache
from repro.service.metrics import ServiceMetrics

#: Default resident-set budget: generous for the bundled/bench networks,
#: small enough that a laptop serving many models actually rotates.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass
class ModelEntry:
    """One resident model: network, engine, and no-evidence prior."""

    name: str
    net: BayesianNetwork
    engine: "BatchedFastBNI | ApproxBNI"
    #: No-evidence marginals ``{var: (card,) array}``, computed once at
    #: load so prior queries (and the ``info`` endpoint) never propagate.
    prior: dict[str, np.ndarray]
    #: Estimated resident footprint (tables + maps + prior), for LRU.
    resident_bytes: int
    #: Wire label of the engine class (``engine.capabilities.kind``);
    #: behavioural decisions dispatch on :attr:`capabilities`, never on
    #: this string.
    engine_kind: str = "exact"
    #: The planner decision that picked the engine (estimate + reason).
    plan: "PlanDecision | None" = None
    #: For approx entries: the no-evidence sampling result backing ``prior``
    #: (carries the prior's own ess/stderr for baseline-served responses).
    prior_result: "ApproxInferenceResult | None" = None
    #: Whether the engine's tables came from a model file already in the
    #: registry's ``cache_dir`` (a warm start).
    from_cache: bool = False
    meta: dict[str, float] = field(default_factory=dict)
    #: Number of in-flight computations using this entry's engine (see
    #: :meth:`ModelRegistry.lease`); eviction defers the engine close until
    #: the last lease is released.  Long-lived streaming sessions
    #: (:mod:`repro.service.sessions`) hold one pin each for their whole
    #: lifetime, so evicting a model with live sessions retires rather
    #: than closes the shared engine/plan.
    pins: int = 0
    #: Set when the entry was evicted while pinned.
    retired: bool = False
    #: Bytes owned by live streaming sessions over this model, maintained
    #: by the :class:`~repro.service.sessions.SessionManager`; counted in
    #: :meth:`total_bytes` so sessions charge against the registry budget
    #: exactly like the result memo does.
    session_bytes: int = 0
    #: Query-result memo (exact entries only, ``None`` when the registry
    #: was built with ``cache=False``).  Lives and dies with the entry, so
    #: replacing or evicting a model can never leave a stale memoised
    #: result behind.
    cache: "InferenceCache | None" = None
    #: Decided once at load: the engine answers a case in one foreign call
    #: from its calibrated prior (native kernels, ``seq`` mode), so one
    #: case (a fill-1 flush, a session read) is cheap enough to run on the
    #: event loop.
    one_foreign_call: bool = False

    def total_bytes(self) -> int:
        """Engine residency plus cache and session footprints (for the LRU)."""
        return (self.resident_bytes + self.session_bytes
                + (self.cache.total_bytes() if self.cache is not None else 0))

    @property
    def capabilities(self):
        """The engine's :class:`~repro.exec.engine_api.EngineCapabilities`."""
        return self.engine.capabilities

    @property
    def key(self) -> str:
        """Registry cache key (approx residencies are suffixed)."""
        return entry_key(self.name, self.engine_kind)


def _close_engine(engine) -> None:
    """Close ``engine`` and drop its plan's tables (unmapping a model
    file), so an evicted model holds no memory past its last lease."""
    engine.close()
    plan = getattr(engine, "plan", None)
    if plan is not None:
        plan.release_tables()


def entry_key(name: str, kind: str) -> str:
    """Registry key: exact engine classes own the bare name, others suffix."""
    caps = CAPABILITIES_BY_KIND.get(kind)
    if caps is not None and caps.exact:
        return name
    return f"{name}@{kind}"


class ModelRegistry:
    """LRU registry of compiled, baseline-calibrated inference engines.

    ``engine_options`` are forwarded to :class:`BatchedFastBNI`; the
    default is the sequential vectorised engine (``mode="seq"``), which is
    the right serving configuration for small/medium models — throughput
    comes from micro-batching, not per-query worker pools.

    ``policy`` sets the default engine routing (``"exact"``, ``"approx"``
    or ``"auto"``); per-lookup ``engine=`` overrides it, so one registry
    serves mixed exact/approx traffic.  ``approx_options`` are forwarded to
    :class:`~repro.approx.ApproxBNI` (sample counts, tolerance, seed).
    """

    def __init__(self, *, max_bytes: int = DEFAULT_MAX_BYTES,
                 cache_dir: str | Path | None = None,
                 metrics: ServiceMetrics | None = None,
                 policy: str = "auto",
                 planner: QueryPlanner | None = None,
                 max_exact_bytes: int | None = None,
                 approx_options: dict | None = None,
                 cache: bool = True,
                 cache_options: dict | None = None,
                 **engine_options) -> None:
        if max_bytes <= 0:
            raise NetworkError(f"registry byte budget must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.metrics = metrics
        self.engine_options = {"mode": "seq", **engine_options}
        #: The exact engines' triangulation heuristic: the planner prices
        #: the tree they build.
        self.heuristic = self.engine_options.get("heuristic",
                                                 FastBNIConfig.heuristic)
        self.approx_options = dict(approx_options or {})
        #: Result-memo policy: ``cache=False`` disables the memo entirely;
        #: ``cache_options`` forwards to
        #: :class:`~repro.service.cache.InferenceCache` (``max_memo``,
        #: ``max_bytes``).
        self.cache_enabled = cache
        self.cache_options = dict(cache_options or {})
        if planner is not None:
            self.planner = planner
        else:
            from repro.approx.planner import DEFAULT_REFUSE_EXACT_BYTES

            planner_kwargs = {"policy": policy}
            if max_exact_bytes is not None:
                planner_kwargs["max_exact_bytes"] = max_exact_bytes
                planner_kwargs["refuse_exact_bytes"] = max(
                    max_exact_bytes, DEFAULT_REFUSE_EXACT_BYTES)
            self.planner = QueryPlanner(**planner_kwargs)
        self._entries: OrderedDict[str, ModelEntry] = OrderedDict()
        #: Programmatically injected networks (see :meth:`register`).
        self._nets: dict[str, BayesianNetwork] = {}
        #: Cached ``auto`` decisions per model name, recorded by every
        #: load, so a lookup of a resident model never re-plans.
        self._plans: dict[str, PlanDecision] = {}
        self._lock = threading.RLock()
        self._evictions = 0
        self._closed = False

    # ---------------------------------------------------------------- lookup
    def register(self, name: str, net: BayesianNetwork) -> None:
        """Make an in-memory network loadable under ``name``.

        For embedding applications (and tests) serving networks that exist
        only as objects — generated graphs, learned structures — without a
        ``.bif`` round trip.  The planner applies on load exactly as for
        named models.  Re-registering a name drops any cached plan and any
        resident engine compiled from the previous network, so an updated
        model can never keep serving stale answers.
        """
        net.validate()
        with self._lock:
            self._nets[name] = net
            self._plans.pop(name, None)
            for kind in ("exact", "approx"):
                entry = self._entries.pop(entry_key(name, kind), None)
                if entry is not None:
                    self._retire(entry)

    def _resolve(self, name: str) -> BayesianNetwork:
        with self._lock:
            net = self._nets.get(name)
        return net if net is not None else resolve_network(name)

    def plan_for(self, name: str) -> PlanDecision:
        """The (cached) cost-based ``auto`` decision for ``name``.

        Always planned under ``policy="auto"`` — a per-request
        ``engine="auto"`` must mean "let the cost model decide" even when
        the registry's *default* policy forces one engine class.
        """
        with self._lock:
            decision = self._plans.get(name)
        if decision is None:
            net = self._resolve(name)
            decision = self._plan(name, net, compile_cliques(net, self.heuristic))
        return decision

    def _plan(self, name: str, net: BayesianNetwork, cliques,
              policy: str = "auto") -> PlanDecision:
        """Price ``cliques`` under ``policy``, recording the ``auto``
        decision for ``name`` on the way."""
        decision = self.planner.plan(net, "auto", cliques=cliques)
        with self._lock:
            self._plans[name] = decision
        if policy != "auto":
            # "exact" must apply the refusal cap, "approx" records the
            # forced-sampling reason.
            decision = self.planner.plan(net, policy, cliques=cliques)
        return decision

    def get(self, name: str, engine: str | None = None,
            load: bool = True) -> ModelEntry | None:
        """Resident entry for ``name``, loading (and possibly evicting) on miss.

        ``engine`` overrides the registry's default policy for this lookup
        (``"exact"``, ``"approx"`` or ``"auto"``).  The compile happens
        *outside* the registry lock — a cold load can take seconds and must
        not block concurrent lookups of resident models.  Two threads
        racing on the same cold name may both compile; the first to
        register wins and the loser's engine is closed.

        ``load=False`` never plans or compiles: a dict hit under the lock,
        or ``None`` on a miss (and on an ``auto`` decision not cached yet)
        — the form an event loop may call.
        """
        return self._lookup(name, engine, pins=0, load=load)

    def get_pinned(self, name: str, engine: str | None = None,
                   load: bool = True) -> ModelEntry | None:
        """Atomic :meth:`get` + :meth:`pin`: no eviction window in between.

        ``get`` followed by a separate ``pin`` leaves a gap in which a
        concurrent over-budget eviction can close the engine before the
        caller's pin lands; here the pin is taken under the same lock
        acquisition that found (or registered) the entry, so an engine
        handed out by this method can only ever be *retired* — never
        closed — until the matching :meth:`unpin`.  Callers must unpin in
        a ``finally``.
        """
        return self._lookup(name, engine, pins=1, load=load)

    def _lookup(self, name: str, engine: str | None, pins: int,
                load: bool = True) -> ModelEntry | None:
        policy = engine if engine is not None else self.planner.policy
        if policy not in POLICIES:
            raise PlannerError(
                f"unknown engine policy {policy!r}; expected one of {POLICIES}")
        with self._lock:
            if self._closed:
                raise NetworkError("model registry is closed")
            kind = policy
            if policy == "auto":
                decision = self._plans.get(name)
                kind = decision.engine if decision is not None else None
            entry = (self._entries.get(entry_key(name, kind))
                     if kind is not None else None)
            if entry is not None:
                self._entries.move_to_end(entry.key)
                entry.pins += pins
                if self.metrics is not None:
                    self.metrics.observe_cache(hit=True)
                return entry
        if not load:
            return None
        loaded = self._load(name, policy)
        key = loaded.key
        with self._lock:
            if self._closed:
                _close_engine(loaded.engine)
                raise NetworkError("model registry is closed")
            existing = self._entries.get(key)
            if existing is not None:  # lost the race to a concurrent load
                _close_engine(loaded.engine)
                self._entries.move_to_end(key)
                existing.pins += pins
                return existing
            if self.metrics is not None:
                self.metrics.observe_cache(hit=False)
            self._entries[key] = loaded
            loaded.pins += pins
            self._evict_over_budget()
            return loaded

    def pin(self, entry: ModelEntry) -> ModelEntry:
        """Hold ``entry``'s engine open across a computation (see lease).

        Only safe on an entry that cannot be evicted between lookup and
        pin (e.g. one that is already pinned); fresh lookups should use
        :meth:`get_pinned` instead.
        """
        with self._lock:
            entry.pins += 1
        return entry

    def unpin(self, entry: ModelEntry) -> None:
        with self._lock:
            entry.pins -= 1
            if entry.retired and entry.pins == 0:
                _close_engine(entry.engine)

    @contextmanager
    def lease(self, name: str, engine: str | None = None):
        """``get`` + pin: the engine stays usable even if evicted meanwhile.

        Eviction under the byte budget must not close an engine with an
        in-flight batch calibration (closing shuts its backend pool);
        callers that run engine work off-thread wrap it in a lease so a
        concurrent eviction merely *retires* the entry and the close
        happens when the last lease is released.
        """
        entry = self.get_pinned(name, engine=engine)
        try:
            yield entry
        finally:
            self.unpin(entry)

    def loaded(self) -> tuple[str, ...]:
        """Keys of resident models, least- to most-recently used.

        Exact residencies list under their plain name; approximate ones
        under ``name@approx``.
        """
        with self._lock:
            return tuple(self._entries)

    def total_bytes(self) -> int:
        """Resident bytes across entries, inference caches included."""
        with self._lock:
            return sum(e.total_bytes() for e in self._entries.values())

    # --------------------------------------------------------------- loading
    def _load(self, name: str, policy: str) -> ModelEntry:
        """Resolve, triangulate and plan ``name`` once, then load the
        engine class the plan decided."""
        net = self._resolve(name)
        cliques = compile_cliques(net, self.heuristic)
        decision = self._plan(name, net, cliques, policy)
        # Dispatch on the decided engine class's capabilities: an exact
        # (tree-compiling) class loads with a calibrated baseline and
        # result memo, a sampling class with a sampled prior.
        if decision.capabilities.exact:
            return self._load_exact(name, net, decision, cliques)
        return self._load_approx(name, net, decision)

    def _load_exact(self, name: str, net: BayesianNetwork,
                    decision: PlanDecision, cliques) -> ModelEntry:
        engine = BatchedFastBNI(net, tree=tree_from_cliques(net, cliques),
                                **self.engine_options)
        from_cache = False
        if self.cache_dir is not None:  # off the serve start-up path
            from repro.service.modelfile import attach

            from_cache = attach(engine, self.cache_dir)
        engine.prepare_baseline()

        prior = dict(engine.infer({}).posteriors)

        inference_cache = (InferenceCache(engine.tree, **self.cache_options)
                           if self.cache_enabled else None)

        return ModelEntry(
            name=name,
            net=net,
            engine=engine,
            prior=prior,
            resident_bytes=self._estimate_bytes(engine, prior),
            engine_kind=engine.capabilities.kind,
            plan=decision,
            from_cache=from_cache,
            cache=inference_cache,
            one_foreign_call=engine.one_call_per_case,
            meta={"variables": float(net.num_variables),
                  **{k: float(v) for k, v in engine.stats().items()}},
        )

    def _load_approx(self, name: str, net: BayesianNetwork,
                     decision: PlanDecision) -> ModelEntry:
        """Resident sampling engine + sampled prior (with its error bars)."""
        engine = ApproxBNI(net, **self.approx_options)
        prior_result = engine.infer()
        prior = dict(prior_result.posteriors)
        resident = engine.estimate_resident_bytes()
        resident += sum(8 * v.size for v in prior.values())
        return ModelEntry(
            name=name,
            net=net,
            engine=engine,
            prior=prior,
            resident_bytes=resident,
            engine_kind=engine.capabilities.kind,
            plan=decision,
            prior_result=prior_result,
            from_cache=False,
            meta={"variables": float(net.num_variables),
                  "estimated_jt_bytes": float(decision.estimate.total_table_bytes),
                  "fill_in_width": float(decision.estimate.width),
                  **{k: float(v) for k, v in engine.stats().items()}},
        )

    @staticmethod
    def _estimate_bytes(engine: BatchedFastBNI, prior: dict[str, np.ndarray]) -> int:
        """Resident footprint: base cliques + the index maps the engine
        built (a gathering backend's; native builds none) + (native plans)
        calibrated prior arena + prior marginals."""
        n = 8 * int(engine.tree.stats()["total_clique_size"])  # CPT products
        n += 8 * int(engine.plan.stats()["plan_map_entries"])  # int64 index maps
        n += getattr(engine.plan.prior_flat, "nbytes", 0)
        n += sum(8 * v.size for v in prior.values())
        return n

    # -------------------------------------------------------------- eviction
    def _retire(self, entry: ModelEntry) -> None:
        """Close the engine now, or defer to the last unpin if it's in use."""
        entry.retired = True
        if entry.pins == 0:
            _close_engine(entry.engine)

    def _evict_over_budget(self) -> None:
        # Never evict the most-recent entry: a model larger than the whole
        # budget must still be servable while it is the one in use.
        # Cache bytes count against the same budget (an entry with a fat
        # cache is a bigger target), so caches shrink the rotation window
        # instead of silently growing past it.
        while (len(self._entries) > 1
               and sum(e.total_bytes() for e in self._entries.values())
               > self.max_bytes):
            _, entry = self._entries.popitem(last=False)
            self._retire(entry)
            self._evictions += 1

    def evict(self, name: str | None = None) -> str | None:
        """Evict ``name`` (or the LRU entry); returns the evicted key.

        ``name`` may be a plain model name (evicts the exact residency
        first, else the approx one) or an explicit ``name@approx`` key.
        """
        with self._lock:
            if name is None:
                if not self._entries:
                    return None
                name, entry = self._entries.popitem(last=False)
            else:
                entry = self._entries.pop(name, None)
                if entry is None:
                    key = entry_key(name, "approx")
                    entry = self._entries.pop(key, None)
                    if entry is None:
                        return None
                    name = key
            self._retire(entry)
            self._evictions += 1
            return name

    def cache_stats(self) -> dict:
        """Per-entry result-memo statistics (the ``cache_stats`` op)."""
        with self._lock:
            entries = [(key, e.cache) for key, e in self._entries.items()
                       if e.cache is not None]
        return {
            "enabled": self.cache_enabled,
            "models": {key: c.stats() for key, c in entries},
        }

    # ------------------------------------------------------------- lifecycle
    def stats(self) -> dict:
        with self._lock:
            return {
                "loaded": list(self._entries),
                "resident_bytes": sum(e.total_bytes()
                                      for e in self._entries.values()),
                "cache_bytes": sum(e.cache.total_bytes()
                                   for e in self._entries.values()
                                   if e.cache is not None),
                "max_bytes": self.max_bytes,
                "evictions": self._evictions,
                "warm_starts": sum(1 for e in self._entries.values()
                                   if e.from_cache),
                "policy": self.planner.policy,
                "exact_models": sum(1 for e in self._entries.values()
                                    if e.capabilities.exact),
                "approx_models": sum(1 for e in self._entries.values()
                                     if not e.capabilities.exact),
                # Active whole-message kernel backend + compiled plan
                # arena footprint per resident engine (None for engines
                # without a compiled plan, e.g. samplers).
                "engines": {
                    key: {
                        "kernels": getattr(getattr(e.engine, "kernels", None),
                                           "name", None),
                        "plan_arena_bytes": (
                            e.engine.plan.arena_bytes
                            if getattr(e.engine, "plan", None) is not None
                            else None),
                    }
                    for key, e in self._entries.items()
                },
            }

    def enforce_budget(self) -> None:
        """Re-check the byte budget (e.g. after a session opens) and evict.

        External byte contributors (the session manager bumping
        ``ModelEntry.session_bytes``) call this so growth between lookups
        still triggers LRU rotation.
        """
        with self._lock:
            self._evict_over_budget()

    def close(self) -> None:
        # Route every entry through _retire, NOT a blind engine.close():
        # shutdown can race in-flight leases (a flush mid-calibration, a
        # live session), and closing a pinned engine yanks its backend
        # pool out from under that work.  Retiring defers each close to
        # the final unpin, exactly like eviction does.
        with self._lock:
            for entry in self._entries.values():
                self._retire(entry)
            self._entries.clear()
            self._closed = True

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
