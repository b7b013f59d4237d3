"""Element-wise parallel JT — Zheng '13 GPU dissertation (Table 1 "Elem.").

Zheng maps each potential-table entry to one GPU thread; the canonical CPU
analog is a fully vectorised element-wise kernel per table operation (one
SIMD-style sweep over all entries, no chunk dispatch, no host-side loops).
Messages run in strictly sequential order.  Per message the formulation
materialises the extended new and old separator tables and divides
element-wise — the direct translation of the per-element GPU kernels,
costing two table-sized temporaries that Fast-BNI's fused ratio-absorb
avoids.
"""

from __future__ import annotations

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.core.config import FastBNIConfig
from repro.core.fastbni import FastBNI
from repro.exec.kernels import triples_to_map
from repro.jt.engine import InferenceResult
from repro.jt.structure import TreeState


class ElementEngine:
    """Zheng-style element-wise (vectorised) junction tree."""

    name = "element"

    def __init__(self, net: BayesianNetwork, heuristic: str = "min-fill") -> None:
        self._engine = FastBNI(net, FastBNIConfig(
            mode="seq",
            heuristic=heuristic,
            root_strategy="first",
        ))

    # ------------------------------------------------------------------ infer
    def infer(
        self,
        evidence: dict[str, str | int] | None = None,
        targets: tuple[str, ...] = (),
    ) -> InferenceResult:
        engine = self._engine
        from repro.jt.evidence import absorb_evidence
        from repro.jt.query import all_posteriors

        state = engine.tree.fresh_state()
        if evidence:
            absorb_evidence(state, evidence)
        # Zheng's kernels index by thread id; the plan's cached maps go unused.
        for upward, src, dst, sep_id, edge, _, _ in \
                engine.plan.compiled_messages(maps=False):
            self._message(state, upward, src, dst, sep_id, edge)
        return InferenceResult(
            posteriors=all_posteriors(state, targets),
            log_evidence=engine._log_evidence(state),
        )

    def _message(self, state: TreeState, upward: bool, src: int, dst: int,
                 sep_id: int, edge) -> None:
        engine = self._engine
        marg, absorb = edge.triples(upward)
        src_vals = state.clique_pot[src].values
        dst_vals = state.clique_pot[dst].values

        # element-wise marginalization kernel (one thread per entry → scatter)
        imap = triples_to_map(src_vals.size, marg)
        new_sep = np.bincount(imap, weights=src_vals, minlength=edge.sep_size)
        new_sep = engine.normalize_message(state, new_sep, track=upward)

        # element-wise extension kernels: materialise both separator tables
        # at clique resolution (the per-element GPU formulation)
        emap = triples_to_map(dst_vals.size, absorb)
        ext_new = new_sep[emap]
        ext_old = state.sep_pot[sep_id].values[emap]

        # element-wise divide-multiply kernel with 0/0 = 0
        quot = np.zeros_like(ext_new)
        np.divide(ext_new, ext_old, out=quot, where=ext_old != 0)
        dst_vals *= quot
        state.sep_pot[sep_id].values = new_sep

    def stats(self) -> dict[str, float]:
        return self._engine.stats()

    def close(self) -> None:
        self._engine.close()

    def __enter__(self) -> "ElementEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
