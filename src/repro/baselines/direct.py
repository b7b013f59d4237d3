"""Direct coarse-grained parallel JT — Kozlov & Singh '94 (Table 1 "Dir.").

A parallel Lauritzen–Spiegelhalter pass with *clique-granularity* tasks and
no structural optimisation: the tree is rooted at whatever clique comes
first (no root selection) and each message is a whole-table unit of work
(no flattening).  Load imbalance between cliques of very different sizes
and the tree height both limit it — the two effects Fast-BNI's hybrid
design addresses.

Implementation: reuses the shared inter-clique executor
(:mod:`repro.core.inter`) through a FastBNI engine pinned to
``mode="inter", root_strategy="first"``; the comparison against
Fast-BNI-par therefore isolates exactly the paper's contribution (BFS
layer flattening + root selection + fused primitives).
"""

from __future__ import annotations

from repro.bn.network import BayesianNetwork
from repro.core.config import FastBNIConfig
from repro.core.fastbni import FastBNI
from repro.jt.engine import InferenceResult
from repro.jt.structure import DEFAULT_HEURISTIC


class DirectEngine:
    """Kozlov–Singh-style coarse-grained parallel junction tree."""

    def __init__(
        self,
        net: BayesianNetwork,
        num_workers: int | None = None,
        heuristic: str = DEFAULT_HEURISTIC,
    ) -> None:
        self._engine = FastBNI(net, FastBNIConfig(
            mode="inter",
            num_workers=num_workers,
            heuristic=heuristic,
            root_strategy="first",
        ))

    @property
    def name(self) -> str:
        return f"direct[{self._engine.backend.name}x{self._engine.backend.num_workers}]"

    def infer(
        self,
        evidence: dict[str, str | int] | None = None,
        targets: tuple[str, ...] = (),
    ) -> InferenceResult:
        return self._engine.infer(evidence, targets)

    def stats(self) -> dict[str, float]:
        return self._engine.stats()

    def close(self) -> None:
        self._engine.close()

    def __enter__(self) -> "DirectEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
