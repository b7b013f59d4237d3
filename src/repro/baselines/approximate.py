"""Approximate inference: a reference likelihood-weighting sampler.

The exact engines are the paper's subject; this sampler completes the
substrate a downstream user expects from a BN library and serves as a slow
*statistical* oracle: its estimates must converge to the exact
posteriors as the sample count grows, and the vectorised production
sampler (:mod:`repro.approx.lw`) is cross-checked against it in the test
suite — which guards against errors that systematic implementations could
share.

The engine accepts ``seed``/``rng`` as an int, ``None`` or an existing
:class:`numpy.random.Generator` (threaded through
:func:`repro.utils.rng.as_rng`).  With an int seed every ``posterior(s)``
call draws the same stream, making reference runs reproducible; passing a
generator threads one stream through a pipeline instead.
"""

from __future__ import annotations

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.errors import EvidenceError
from repro.utils.rng import as_rng


class LikelihoodWeightingEngine:
    """Importance sampling with evidence clamped and weighted in."""

    name = "likelihood-weighting"

    def __init__(self, net: BayesianNetwork, num_samples: int = 10_000,
                 seed: "int | None | np.random.Generator" = 0, *,
                 rng: "int | None | np.random.Generator" = None) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        net.validate()
        self.net = net
        self.num_samples = num_samples
        self.seed = rng if rng is not None else seed
        self._order = net.topological_order()

    def posterior(self, target: str, evidence: dict[str, str | int] | None = None
                  ) -> np.ndarray:
        return self.posteriors((target,), evidence)[target]

    def posteriors(self, targets, evidence: dict[str, str | int] | None = None
                   ) -> dict[str, np.ndarray]:
        rng = as_rng(self.seed)
        ev = {n: self.net.variable(n).state_index(s)
              for n, s in (evidence or {}).items()}
        acc = {t: np.zeros(self.net.variable(t).cardinality) for t in targets}
        total_weight = 0.0
        n = self.num_samples
        # Vectorised over samples, one variable at a time.
        columns: dict[str, np.ndarray] = {}
        weights = np.ones(n)
        for var in self._order:
            cpt = self.net.cpt(var.name)
            if cpt.parents:
                parent_cols = np.stack([columns[p.name] for p in cpt.parents])
                rows = cpt.table[tuple(parent_cols)]
            else:
                rows = np.broadcast_to(cpt.table, (n, var.cardinality))
            if var.name in ev:
                s = ev[var.name]
                columns[var.name] = np.full(n, s, dtype=np.int64)
                weights = weights * rows[:, s]
            else:
                cdf = np.cumsum(rows, axis=1)
                u = rng.random(n)[:, None]
                columns[var.name] = (u >= cdf).sum(axis=1).clip(0, var.cardinality - 1)
        total_weight = float(weights.sum())
        if total_weight <= 0.0:
            raise EvidenceError("all samples have zero weight (evidence too unlikely)")
        for t in targets:
            np.add.at(acc[t], columns[t], weights)
            acc[t] /= total_weight
        return acc

