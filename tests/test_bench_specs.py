"""The comparison harness, and the tie between each artifact spec's
generator and its gate rows.

Before the specs, an artifact's JSON schema was known to its generator, to
a ``check_*`` function in another tree and to a docs code block, and no
tier-1 test ran any generator.  Here every spec gets a seconds-long tiny
run whose report must carry the unchanged ``schema`` string and every JSON
path its gate rows read; the harness itself is pinned on synthetic sides
with a known cost ratio.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import ablation_matrix, frontier, obs, overlap, table1
from repro.bench.artifact import write_report
from repro.bench.harness import balanced_median, paired_ratios, paired_rounds
from repro.bench.registry import ARTIFACTS, COMMANDS

REPO_ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------------ harness
class Clock:
    """Synthetic sides: a slice 'costs' ``cost * drift**t`` at global slice
    index ``t`` — a machine that slows down steadily through the sweep."""

    def __init__(self, costs: dict[str, float], drift: float = 1.0) -> None:
        self.costs, self.drift = costs, drift
        self.calls: list[str] = []

    def side(self, name: str):
        async def run_slice() -> float:
            self.calls.append(name)
            return self.costs[name] * self.drift ** (len(self.calls) - 1)
        return run_slice

    def sides(self) -> dict:
        return {name: self.side(name) for name in self.costs}


class TestPairedRounds:
    def test_warmup_slice_is_untimed(self):
        clock = Clock({"a": 1.0, "b": 2.0})
        results = asyncio.run(paired_rounds(clock.sides(), 2))
        # One untimed slice per side, then 2 rounds x 2 sides ...
        assert len(clock.calls) == 2 + 4
        assert clock.calls[:2] == ["a", "b"]
        # ... and only the rounds are reported.
        assert {name: len(r) for name, r in results.items()} == {"a": 2,
                                                                 "b": 2}

    def test_explicit_warmup_replaces_the_per_side_one(self):
        clock = Clock({"a": 1.0, "b": 2.0, "scratch": 5.0})
        sides = {name: clock.side(name) for name in ("a", "b")}
        results = asyncio.run(paired_rounds(
            sides, 1, warmup=[clock.side("scratch")]))
        assert clock.calls == ["scratch", "a", "b"]
        assert set(results) == {"a", "b"}

    def test_order_reverses_on_odd_rounds(self):
        clock = Clock({"a": 1.0, "b": 1.0, "c": 1.0})
        asyncio.run(paired_rounds(clock.sides(), 4, warmup=()))
        rounds = [clock.calls[i:i + 3] for i in range(0, 12, 3)]
        assert rounds == [["a", "b", "c"], ["c", "b", "a"],
                          ["a", "b", "c"], ["c", "b", "a"]]

    def test_paired_ratio_survives_a_drift_that_fools_totals(self):
        """b really costs 1.5x a.  With the machine slowing 20% per slice
        the ratio of totals is off by position bias; pairing within a
        round and balancing forward against reversed rounds recovers the
        ratio exactly."""
        clock = Clock({"a": 1.0, "b": 1.5}, drift=1.2)
        results = asyncio.run(paired_rounds(clock.sides(), 6, warmup=()))
        ratio_of_totals = sum(results["b"]) / sum(results["a"])
        assert abs(ratio_of_totals - 1.5) > 0.03
        ratios = paired_ratios(results["b"], results["a"])
        assert balanced_median(ratios) == pytest.approx(1.5, rel=1e-12)

    def test_balanced_median_discards_a_corrupted_pair(self):
        ratios = [1.0, 1.0, 9.0, 9.0, 1.0, 1.0]  # a burst hit rounds 2-3
        assert balanced_median(ratios) == pytest.approx(1.0)
        assert balanced_median([1.0, 4.0]) == pytest.approx(2.0)


# ------------------------------------------------------------ spec <-> gate
#: Pinned literally: a schema string only changes with the artifact.
SCHEMAS = {
    "table1": "fastbni-bench-table1-v1",
    "sessions": "fastbni-bench-sessions-v1",
    "incremental": "fastbni-bench-incremental-v1",
    "obsbench": "fastbni-bench-obs-v1",
    "ablate": "fastbni-bench-ablation-v1",
    "frontier": "exact_vs_approx_frontier",
}


TINY_RUNS = {
    "table1": lambda: table1.run_table1(
        networks=("hailfinder",), num_cases=1, sweep=(1,)),
    "sessions": lambda: overlap.run_sessions(
        network="asia", overlaps=(0.5, 0.75), num_queries=4),
    "incremental": lambda: overlap.run_incremental(
        overlaps=(0.5, 0.75, 1.0), num_queries=4),
    "obsbench": lambda: obs.run_obs(requests=8, concurrency=2, repeats=2),
    "ablate": lambda: ablation_matrix.run_ablation(
        seed=3, requests=16, repeats=2, concurrency=2, components=["cache"],
        trace_kwargs={"mix": {"zipf": 0.6, "session": 0.4}}),
    "frontier": lambda: frontier.run_frontier(
        networks=("asia",), sample_counts=(64,), num_cases=1),
}


def test_every_artifact_has_a_pinned_schema_and_a_tiny_run():
    assert {spec.name: spec.schema for spec in ARTIFACTS} == SCHEMAS
    assert set(TINY_RUNS) == set(SCHEMAS)
    assert [c.name for c in COMMANDS] == [*SCHEMAS, "workload"]


@pytest.mark.parametrize("spec", ARTIFACTS, ids=lambda spec: spec.name)
def test_tiny_run_has_every_path_its_gate_rows_read(spec, cb, tmp_path):
    report = TINY_RUNS[spec.name]()
    assert report.get("schema", report.get("benchmark")) == spec.schema
    # The report survives the one writer and renders.
    report = json.loads(write_report(report, tmp_path / spec.path).read_text())
    assert spec.render(report)
    doc = report
    if spec.compare is not None:
        doc = {**report, "vs_baseline": spec.compare(report, report)}
    for gate in spec.gates:
        cb.resolve(doc, gate.path)  # LookupError: the row reads no field
    # Timings of a seconds-long run prove nothing; what must hold even
    # here is every agreement row.
    if spec.gates:
        failures = cb.evaluate(spec, report, report)[0]
        assert not [f for f in failures if "has no" in f or "errors" in f
                    or "max_abs_diff" in f or "mismatched" in f]


# ---------------------------------------------------------------------- cli
def test_serve_imports_no_bench_module():
    """``bench/``'s serve workloads measure ``fastbni serve`` start-up
    (``setup_s``): building the parser and starting the server must import
    no bench or cluster module, and no service module beyond these."""
    code = (
        "import sys\n"
        "import repro.cli as cli\n"
        "cli.build_parser().parse_args(['serve'])\n"
        "heavy = ('repro.bench', 'repro.cluster', 'repro.service')\n"
        "assert not [m for m in sys.modules if m.startswith(heavy)]\n"
        "import repro.service.server as server\n"
        "async def started(*args, **kwargs): pass\n"
        "server.run_server = started\n"
        "cli.main(['serve', '--port', '0'])\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": str(REPO_ROOT / "src")}).stdout
    assert out.splitlines()[-1] == str([
        "repro.service", "repro.service.batcher", "repro.service.cache",
        "repro.service.client", "repro.service.metrics",
        "repro.service.ops", "repro.service.registry", "repro.service.server",
        "repro.service.sessions"])


def test_bench_subcommands_come_from_the_specs():
    from repro.cli import build_parser

    parser = build_parser()
    for command in COMMANDS:
        args = parser.parse_args([command.name])
        assert args.func == command.main
        for flag in command.cli_flags:
            assert getattr(args, flag.dest) == flag.default
