"""High-level sequential junction-tree engine (the reference implementation).

This is the baseline-quality *correct* engine: compile once, then for each
test case absorb evidence, run two-phase calibration and read posteriors.
Fast-BNI's engines (:mod:`repro.core`) share its compile step and result
format; the benchmark runner treats every engine uniformly through the
``infer(evidence, targets)`` interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.jt.calibrate import calibrate
from repro.jt.evidence import absorb_evidence
from repro.jt.layers import LayerSchedule, compute_layers
from repro.jt.query import all_posteriors, log_evidence
from repro.jt.root import select_root
from repro.jt.structure import (DEFAULT_HEURISTIC, JunctionTree,
                                 compile_junction_tree)


@dataclass
class InferenceResult:
    """Posteriors plus the evidence likelihood for one test case."""

    posteriors: dict[str, np.ndarray]
    log_evidence: float
    meta: dict[str, float] = field(default_factory=dict)

    def posterior(self, name: str) -> np.ndarray:
        return self.posteriors[name]


@dataclass
class BatchInferenceResult:
    """Columnar results for a calibrated batch of ``n`` cases.

    ``posteriors[name]`` is an ``(n, card)`` array (row *i* = case *i*'s
    posterior) and ``log_evidence`` is ``(n,)`` — the memory layout the
    batched engine computes natively.  :meth:`case` materialises the
    per-case :class:`InferenceResult` view, so batched and looped runs are
    interchangeable for callers that iterate.
    """

    posteriors: dict[str, np.ndarray]
    log_evidence: np.ndarray
    meta: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.log_evidence.shape[0])

    def posterior(self, name: str) -> np.ndarray:
        return self.posteriors[name]

    def case(self, i: int) -> InferenceResult:
        """Per-case view (shares the underlying batch arrays)."""
        if not 0 <= i < len(self):
            raise IndexError(f"case {i} out of range (batch of {len(self)})")
        return InferenceResult(
            posteriors={name: vals[i] for name, vals in self.posteriors.items()},
            log_evidence=float(self.log_evidence[i]),
        )

    def __iter__(self):
        return (self.case(i) for i in range(len(self)))


class JunctionTreeEngine:
    """Sequential reference engine.

    Parameters
    ----------
    net:
        A validated Bayesian network.
    heuristic:
        Triangulation heuristic (see
        :func:`repro.jt.structure.compile_cliques`).
    root_strategy:
        Root selection (see :mod:`repro.jt.root`); the reference engine
        defaults to the paper's ``"center"`` since it never hurts.
    method:
        Potential-op implementation, ``"ndview"`` or ``"indexmap"``.
    """

    name = "jt-sequential"

    def __init__(
        self,
        net: BayesianNetwork,
        heuristic: str = DEFAULT_HEURISTIC,
        root_strategy: str = "center",
        method: str = "auto",
    ) -> None:
        self.net = net
        self.method = method
        self.tree: JunctionTree = compile_junction_tree(net, heuristic=heuristic)
        select_root(self.tree, root_strategy)
        self.schedule: LayerSchedule = compute_layers(self.tree)

    def infer(
        self,
        evidence: dict[str, str | int] | None = None,
        targets: tuple[str, ...] = (),
    ) -> InferenceResult:
        """Run one inference: evidence in, posteriors out."""
        state = self.tree.fresh_state()
        if evidence:
            absorb_evidence(state, evidence)
        calibrate(state, self.schedule, method=self.method)
        return InferenceResult(
            posteriors=all_posteriors(state, targets),
            log_evidence=log_evidence(state),
        )

    def stats(self) -> dict[str, float]:
        s = self.tree.stats()
        s["num_layers"] = self.schedule.num_layers
        return s
