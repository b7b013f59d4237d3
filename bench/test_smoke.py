"""Tier-1 wiring check: ``run.py --smoke`` emits every contracted metric.

One tiny pass of each workload, traced and untraced.  The numbers mean
nothing at this size; the test pins that the benchmark still starts every
process under test, that the oracle agrees, and that every metric
``BENCHMARK.json`` names comes out finite, under its name, with its unit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.native.build import find_compiler

BENCH = Path(__file__).resolve().parent


@pytest.mark.skipif(find_compiler() is None,
                    reason="the benchmark measures the native kernels")
@pytest.mark.skipif(not Path("/proc/self/schedstat").exists(),
                    reason="CPU time of the process under test needs /proc")
def test_smoke_emits_every_contracted_metric():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke",
         "--out", str(BENCH / "out" / "smoke.json")],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in contract["end_to_end"] + contract["per_layer"]}
    assert set(result["metrics"]) == {w["name"] for w in contract["workloads"]}
    for workload, metrics in result["metrics"].items():
        assert set(metrics) == set(expected), workload
        for name, metric in metrics.items():
            assert metric["unit"] == expected[name], (workload, name)
            assert math.isfinite(metric["value"]), (workload, name)
        for name in ("latency_ms_p50", "throughput_cases_s",
                     "cpu_ms_per_case", "setup_s", "peak_rss_mb"):
            assert metrics[name]["value"] > 0, (workload, name)
