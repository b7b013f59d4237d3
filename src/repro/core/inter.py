"""Inter-clique (coarse-grained) calibration.

One task per *destination clique*: all messages of a layer converging on
the same clique run in a single task (their absorptions write the same
table and must serialise); distinct destinations proceed concurrently.
Each message is one whole-message call of the engine's kernel backend
(:meth:`repro.exec.kernels.KernelBackend.message`) — the same unit the
sequential schedule runs, so ``kernels="native"`` tasks overlap GIL-free.
Layers are barriers.  This is Fast-BNI's coarse granularity in isolation —
load balance suffers when one clique in a layer is much larger than its
peers, which is precisely the shortcoming the hybrid mode fixes (paper
§1/§2).
"""

from __future__ import annotations

from repro.jt.structure import TreeState


def run_messages(kernels, messages: tuple[tuple, ...]) -> list[float]:
    """Run messages sharing a destination clique, in order.

    Each item is the argument tuple of one ``kernels.message`` call;
    returns the messages' log normalisation constants.
    """
    return [kernels.message(*m) for m in messages]


def calibrate_inter(engine, state: TreeState) -> None:
    """Layer-synchronous collect + distribute with message-level tasks."""
    kernels = engine.kernels
    cliques = [p.values for p in state.clique_pot]
    seps = [p.values for p in state.sep_pot]
    for layer in engine.plan.compiled_layers(maps=kernels.wants_maps):
        # Collect layers fan in (siblings share a parent); in distribute
        # layers every destination is distinct, so each task is one message.
        upward = layer[0][0]
        by_dst: dict[int, list[tuple]] = {}
        for _, src, dst, sep_id, edge, m_marg, m_abs in layer:
            by_dst.setdefault(dst, []).append(
                (cliques[src], cliques[dst], seps[sep_id], edge, upward,
                 (m_marg, m_abs)))
        tasks = [(run_messages, (kernels, tuple(msgs)))
                 for msgs in by_dst.values()]
        engine.count("dispatch_batches")
        engine.count("dispatch_tasks", len(tasks))
        engine.count("messages", len(layer))
        for log_totals in engine.backend.run_batch(tasks):
            if upward:  # collect constants are factors of P(e)
                state.log_norm += sum(log_totals)
