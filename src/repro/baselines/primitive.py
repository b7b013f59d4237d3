"""Node-level primitives — Xia & Prasanna '07 (Table 1 "Prim.").

Their design: a strictly sequential message schedule, with each potential
table *operation* exposed as its own data-parallel primitive.  Per message
this dispatches **three** parallel batches (marginalize, extend, multiply)
plus a serial separator division — versus two fused batches in Fast-BNI's
intra mode and two per *layer* in hybrid mode.  The extension primitive
also materialises the full extended table (their formulation), costing an
extra table-sized temporary per message.  Those per-op invocation and
materialisation overheads are exactly the "large parallelization overhead
since the table operations are invoked frequently" the paper cites (§1).
"""

from __future__ import annotations

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.core.config import FastBNIConfig
from repro.core.fastbni import FastBNI
from repro.exec.kernels import chunk_dst_indices, marg_chunk, ratio_vector
from repro.jt.engine import InferenceResult
from repro.jt.structure import DEFAULT_HEURISTIC, TreeState
from repro.parallel.chunking import CHUNKS_PER_WORKER, chunk_ranges


def extend_chunk(out: np.ndarray, lo: int, hi: int, triples, sep_values: np.ndarray,
                 imap: np.ndarray | None = None) -> None:
    """Materialise ``extend(sep_values)`` over ``out[lo:hi]`` (X-P primitive 3)."""
    out[lo:hi] = sep_values[chunk_dst_indices(lo, hi, triples, imap)]


def multiply_chunk(dst: np.ndarray, other: np.ndarray, lo: int, hi: int) -> None:
    """Pointwise ``dst[lo:hi] *= other[lo:hi]`` (X-P primitive 4)."""
    dst[lo:hi] *= other[lo:hi]


class PrimitiveEngine:
    """Xia–Prasanna-style per-operation parallel junction tree."""

    def __init__(
        self,
        net: BayesianNetwork,
        num_workers: int | None = None,
        heuristic: str = DEFAULT_HEURISTIC,
        min_chunk: int = 2048,
    ) -> None:
        # Reuse FastBNI's compile + plan; calibration below is X-P's own.
        self._engine = FastBNI(net, FastBNIConfig(
            mode="intra",  # placeholder; we drive calibration ourselves
            num_workers=num_workers,
            heuristic=heuristic,
            root_strategy="first",
            min_chunk=min_chunk,
        ))
        # Scratch buffer for materialised extensions, one per clique size.
        self._scratch = np.empty(
            max(c.size for c in self._engine.tree.cliques), dtype=np.float64
        )

    @property
    def name(self) -> str:
        return f"primitive[{self._engine.backend.name}x{self._engine.backend.num_workers}]"

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
        for message in engine.plan.compiled_messages(maps=True):
            self._message(state, *message)
        return InferenceResult(
            posteriors=all_posteriors(state, targets),
            log_evidence=engine._log_evidence(state),
        )

    # ---------------------------------------------------------------- message
    def _chunks(self, size: int) -> list[tuple[int, int]]:
        engine = self._engine
        if size < engine.config.min_chunk:
            return [(0, size)]
        return chunk_ranges(size,
                            engine.backend.num_workers * CHUNKS_PER_WORKER,
                            min_chunk=engine.config.min_chunk)

    def _message(self, state: TreeState, upward: bool, src: int, dst: int,
                 sep_id: int, edge, marg_map, absorb_map) -> None:
        engine = self._engine
        marg, absorb = edge.triples(upward)
        src_vals = state.clique_pot[src].values
        dst_vals = state.clique_pot[dst].values

        # primitive 1: parallel marginalization (per-message dispatch)
        tasks = [(marg_chunk, (src_vals, lo, hi, marg, edge.sep_size, marg_map))
                 for lo, hi in self._chunks(src_vals.size)]
        new_sep = np.sum(engine.backend.run_batch(tasks), axis=0)
        new_sep = engine.normalize_message(state, new_sep, track=upward)

        # primitive 2: separator division (serial: separator tables are small)
        ratio = ratio_vector(new_sep, state.sep_pot[sep_id].values)
        state.sep_pot[sep_id].values = new_sep

        # primitive 3: parallel extension, materialised into scratch
        scratch = self._scratch[:dst_vals.size]
        chunks = self._chunks(dst_vals.size)
        engine.backend.run_batch(
            [(extend_chunk, (scratch, lo, hi, absorb, ratio, absorb_map))
             for lo, hi in chunks])

        # primitive 4: parallel pointwise multiplication
        engine.backend.run_batch(
            [(multiply_chunk, (dst_vals, scratch, lo, hi)) for lo, hi in chunks])

    def stats(self) -> dict[str, float]:
        return self._engine.stats()

    def close(self) -> None:
        self._engine.close()

    def __enter__(self) -> "PrimitiveEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
