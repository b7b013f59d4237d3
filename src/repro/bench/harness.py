"""The one comparison harness behind the serving-side artifacts.

Every ``BENCH_*`` question of the form "what does X cost / buy on the
serving path" is the same experiment: several *sides* (server
configurations, or a single process vs a cluster) answer one
:class:`~repro.bench.traffic.TrafficTrace`, and the report is a ratio
between them.  A shared CI box injects multi-second CPU-steal bursts worth
±30% into any single timing, so the discipline that makes a 2% budget
measurable is stated — and implemented — once, here:

* every side is **live simultaneously** with persistent client
  connections (:class:`~repro.bench.traffic.TraceReplayer`; an idle
  closed-loop side costs nothing), so a timed slice is pure request
  traffic — no start-up, connect or compile inside it;
* an **untimed warm-up** slice runs first (by default one per side);
* timing alternates between the sides in short slices whose **order
  reverses every round** (ABBA), so an external burst spans several
  sides' slices instead of electing one and the first-in-round penalty
  cancels — use an even ``repeats``;
* a ``gc.collect()`` precedes every slice so no side inherits another's
  garbage;
* a side's cost is a **paired ratio** against the reference slice of the
  *same* round (:func:`paired_ratios`) — a burst that slows a whole round
  inflates both sides of its ratio and cancels.  :func:`balanced_median`
  then geometric-means each forward round with its reversed partner
  (first-order drift within a round cancels exactly) and takes the median
  over those pairs (discarding rounds a burst partially corrupted).
"""

from __future__ import annotations

import contextlib
import gc
from typing import Awaitable, Callable, Iterable

from repro.bench.traffic import ReplayResult, TraceReplayer, TrafficTrace

Slice = Callable[[], Awaitable]


async def paired_rounds(sides: dict[str, Slice], repeats: int, *,
                        warmup: Iterable[Slice] | None = None
                        ) -> dict[str, list]:
    """Run every side's slice once per round; returns results per side.

    ``warmup`` slices run once each, untimed, before round 0 (default:
    every side's own slice).
    """
    for warm in (sides.values() if warmup is None else warmup):
        await warm()
    results: dict[str, list] = {name: [] for name in sides}
    for round_i in range(repeats):
        order = list(sides)
        if round_i % 2:
            order.reverse()  # counterbalance in-round position bias
        for name in order:
            gc.collect()
            results[name].append(await sides[name]())
    return results


def paired_ratios(samples: list[float], reference: list[float]) -> list[float]:
    """Per-round ``sample / reference`` of two sides' elapsed lists."""
    return [s / r for s, r in zip(samples, reference)]


def balanced_median(ratios: list[float]) -> float:
    """Median over the geometric means of (forward, reversed) round pairs."""
    pairs = sorted((ratios[i] * ratios[i + 1]) ** 0.5
                   for i in range(0, len(ratios) - 1, 2))
    mid = len(pairs) // 2
    return pairs[mid] if len(pairs) % 2 else (pairs[mid - 1] + pairs[mid]) / 2


async def replay_rounds(trace: TrafficTrace, ports: dict[str, int], *,
                        concurrency: int, repeats: int,
                        warmup: dict[str, int] | None = None
                        ) -> dict[str, list[ReplayResult]]:
    """:func:`paired_rounds` where a slice is one replay of ``trace``
    against the live loopback endpoint ``ports[side]``; ``warmup`` names
    the endpoints to drive once untimed instead of every side."""
    async with contextlib.AsyncExitStack() as stack:
        async def slices(endpoints: dict[str, int]) -> dict[str, Slice]:
            out = {}
            for name, port in endpoints.items():
                replayer = await stack.enter_async_context(
                    TraceReplayer("127.0.0.1", port, concurrency))
                out[name] = lambda r=replayer: r.replay(trace)
            return out

        sides = await slices(ports)
        warm = None if warmup is None else (await slices(warmup)).values()
        return await paired_rounds(sides, repeats, warmup=warm)


def elapsed_of(results: dict[str, list[ReplayResult]]
               ) -> dict[str, list[float]]:
    """Per-side slice times, for artifacts where a failed request voids
    the measurement."""
    for side, slices in results.items():
        for replay in slices:
            if replay.errors:
                raise RuntimeError(f"{side} query failed: {replay.errors[0]}")
    return {side: [replay.elapsed_s for replay in slices]
            for side, slices in results.items()}


@contextlib.asynccontextmanager
async def live_servers(variants: dict[str, dict],
                       setup: Callable[[object], None]):
    """One started in-process ``InferenceServer(port=0, **kwargs)`` per
    variant, after ``setup(server)`` loaded its models; all stopped on
    exit."""
    from repro.service import InferenceServer

    servers: dict[str, InferenceServer] = {}
    try:
        for name, kwargs in variants.items():
            server = InferenceServer(port=0, **kwargs)
            setup(server)
            await server.start()
            servers[name] = server
        yield servers
    finally:
        for server in servers.values():
            await server.stop()
