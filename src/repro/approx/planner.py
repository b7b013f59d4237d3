"""Cost-based exact/approx query planner.

Exact junction-tree calibration is exponential in induced width: one dense
high-treewidth network can stall a serving process (or exhaust its memory)
at *compile* time, before a single query runs.  The planner prices exact
inference up front, from the maximal cliques of the triangulation the
exact engine builds its tree from
(:func:`repro.jt.structure.compile_cliques`): their widths and table
sizes, in Python ints, before any table or
:class:`~repro.potential.domain.Domain` exists.  A clique too large to
ever be a table is still priced, and routed or refused.  Each network
goes to:

* ``policy="exact"``   — always exact, but *refuse* (raise
  :class:`~repro.errors.PlannerError`) when the tables exceed the hard
  ``refuse_exact_bytes`` cap rather than thrash or OOM;
* ``policy="approx"``  — always the sampling engine;
* ``policy="auto"``    — exact while the tables fit ``max_exact_bytes``,
  approximate beyond it (the serving default).

The price is the compiled tree's own clique tables (float64), so a
caller that triangulates once can price and then build the same tree
(:func:`repro.jt.structure.tree_from_cliques`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bn.network import BayesianNetwork
from repro.errors import PlannerError
from repro.exec.engine_api import CAPABILITIES_BY_KIND, EngineCapabilities
from repro.jt.structure import compile_cliques

POLICIES = ("exact", "approx", "auto")

#: Auto-routing threshold: junction-tree tables beyond this go to sampling
#: (a quarter of the service registry's default 256 MiB budget).
DEFAULT_MAX_EXACT_BYTES = 64 * 1024 * 1024

#: Hard refusal cap for ``policy="exact"``: above this the compile is not
#: merely slow but a process-killer, so the planner refuses outright.
DEFAULT_REFUSE_EXACT_BYTES = 1024 * 1024 * 1024


@dataclass(frozen=True)
class TreeCost:
    """Table sizes of a junction tree's cliques, in Python ints."""

    #: Induced width of the triangulation (max clique size − 1).
    width: int
    #: Entry count of the largest clique table.
    max_clique_entries: int
    #: Float64 storage of all clique tables (8 bytes per entry).
    total_table_bytes: int
    #: ``log10`` of the largest table.
    log10_max_clique: float


@dataclass(frozen=True)
class PlanDecision:
    """The planner's verdict for one network."""

    #: ``"exact"`` or ``"approx"``.
    engine: str
    #: The policy that produced the decision.
    policy: str
    #: The priced junction tree the decision is based on.
    estimate: TreeCost
    #: Human-readable justification (surfaced by the service ``info`` op).
    reason: str

    @property
    def capabilities(self) -> EngineCapabilities:
        """Capability flags of the chosen engine class.

        Downstream layers (registry, server) dispatch on these — a
        routing decision hands back *what the engine can do*, not a bare
        string to compare against.
        """
        return CAPABILITIES_BY_KIND[self.engine]


class QueryPlanner:
    """Routes networks to the exact or approximate engine class.

    The planner builds no table: it prices the maximal cliques of the
    junction tree's triangulation, and the policy compares their table
    bytes against byte thresholds.

    Parameters
    ----------
    policy:
        Default routing — ``"exact"`` (always compile), ``"approx"``
        (always sample) or ``"auto"`` (cost-based).  Anything else
        raises :class:`~repro.errors.PlannerError`.
    max_exact_bytes:
        ``auto`` threshold: estimated total clique-table bytes beyond
        which a network is routed to sampling (default 64 MiB).
    refuse_exact_bytes:
        Hard cap for ``policy="exact"``: past this estimate
        :meth:`plan` raises :class:`~repro.errors.PlannerError` instead
        of letting a compile thrash or OOM (default 1 GiB; must be
        >= ``max_exact_bytes``).
    """

    def __init__(self, policy: str = "auto",
                 max_exact_bytes: int = DEFAULT_MAX_EXACT_BYTES,
                 refuse_exact_bytes: int = DEFAULT_REFUSE_EXACT_BYTES) -> None:
        if policy not in POLICIES:
            raise PlannerError(
                f"unknown engine policy {policy!r}; expected one of {POLICIES}")
        if max_exact_bytes <= 0 or refuse_exact_bytes < max_exact_bytes:
            raise PlannerError(
                "need 0 < max_exact_bytes <= refuse_exact_bytes, got "
                f"{max_exact_bytes} and {refuse_exact_bytes}"
            )
        self.policy = policy
        self.max_exact_bytes = max_exact_bytes
        self.refuse_exact_bytes = refuse_exact_bytes

    def plan(self, net: BayesianNetwork, policy: str | None = None,
             cliques=None) -> PlanDecision:
        """Decide the engine for ``net`` under ``policy`` (default: own).

        ``cliques`` are the maximal cliques of the tree the exact engine
        would build (:func:`~repro.jt.structure.compile_cliques`); by
        default a min-fill triangulation of ``net``.
        """
        policy = policy if policy is not None else self.policy
        if policy not in POLICIES:
            raise PlannerError(
                f"unknown engine policy {policy!r}; expected one of {POLICIES}")
        if cliques is None:
            cliques = compile_cliques(net)
        cards = {v.name: v.cardinality for v in net.variables}
        entries = [math.prod(cards[v] for v in c) for c in cliques]
        largest = max(entries, default=1)
        estimate = TreeCost(width=max(map(len, cliques), default=1) - 1,
                            max_clique_entries=largest,
                            total_table_bytes=8 * sum(entries),
                            log10_max_clique=math.log10(largest))
        size = f"width {estimate.width}, ~{estimate.total_table_bytes:,} table bytes"
        if policy == "approx":
            return PlanDecision("approx", policy, estimate,
                                f"policy forces sampling ({size})")
        if policy == "exact":
            if estimate.total_table_bytes > self.refuse_exact_bytes:
                raise PlannerError(
                    f"refusing exact compilation of {net.name!r}: "
                    f"junction-tree tables ({size}) exceed the hard cap of "
                    f"{self.refuse_exact_bytes:,} bytes; use engine policy "
                    "'approx' or 'auto'"
                )
            return PlanDecision("exact", policy, estimate,
                                f"policy forces exact ({size})")
        if estimate.total_table_bytes > self.max_exact_bytes:
            return PlanDecision(
                "approx", policy, estimate,
                f"exact cost ({size}) exceeds the "
                f"{self.max_exact_bytes:,}-byte auto threshold")
        return PlanDecision("exact", policy, estimate,
                            f"exact cost ({size}) is affordable")
