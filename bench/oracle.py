"""Answer check against the readable reference backend.

``FastBNI(net, mode="seq", kernels="numpy")`` is the oracle ROADMAP keeps:
textbook N-D sums and broadcasts, no index maps, no C.  Sampled ops are
re-answered here after the timed passes; nothing in a timed pass waits on it.
"""

from __future__ import annotations

import numpy as np

from config import TOLERANCE
from repro import FastBNI, load_network


class Oracle:
    def __init__(self, network: str) -> None:
        self.engine = FastBNI(load_network(network), mode="seq",
                              kernels="numpy")

    def mismatch(self, evidence: dict, targets, answer: dict) -> str | None:
        """Why ``answer`` is wrong for this op, or ``None`` if it is right.

        ``answer`` is the JSON shape both the wire and the library worker
        produce: ``{"posteriors": {name: [p, ...]}, "log_evidence": x}``.
        """
        ref = self.engine.infer(evidence, targets=tuple(targets))
        got = answer.get("posteriors") or {}
        if got.keys() != ref.posteriors.keys():
            return (f"posterior variables differ: "
                    f"{sorted(got.keys() ^ ref.posteriors.keys())[:5]}")
        for name, expected in ref.posteriors.items():
            values = np.asarray(got[name], dtype=float)
            if values.shape != expected.shape:
                return f"{name}: shape {values.shape} != {expected.shape}"
            worst = float(np.max(np.abs(values - expected)))
            if not worst <= TOLERANCE:
                return f"{name}: off by {worst:.3e}"
        log_evidence = answer.get("log_evidence")
        if (log_evidence is None
                or not abs(log_evidence - ref.log_evidence) <= TOLERANCE):
            return f"log_evidence {log_evidence} != {ref.log_evidence}"
        return None
