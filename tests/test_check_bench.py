"""Direct unit tests for every artifact's gate rows and their evaluator.

check_bench guards CI: if *it* silently breaks, every bench regression
sails through.  These tests hold each spec's rows (exec, sessions,
incremental, obs, cluster, ablation) against synthetic reports on both
the pass and the fail path — a failure must name the JSON path of the
row that caught it — plus ``main()``'s wiring (flag routing, exit codes,
the ``--fresh ''`` skip).  ``cb`` is the tool, loaded by ``conftest.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import ablation_matrix, cluster, execbench, obs, overlap

REPO_ROOT = Path(__file__).resolve().parent.parent


def failures_of(cb, spec, report, committed=None) -> list[str]:
    return cb.evaluate(spec, report, committed)[0]


# ----------------------------------------------------------- exec fixtures
def exec_report(ms: float = 1.0, speedup: float = 1.5,
                diff: float = 1e-12) -> dict:
    return {
        "schema": execbench.SCHEMA,
        "rows": [
            {"path": "batched", "kernels": "fused", "ms_per_case": ms},
            {"path": "batched", "kernels": "numpy", "ms_per_case": 2 * ms},
            {"path": "single", "kernels": "fused", "ms_per_case": 3 * ms},
        ],
        "single_case": {"speedup_fused": speedup},
        "max_abs_diff": diff,
    }


class TestExecCheck:
    def check(self, cb, fresh, committed):
        return failures_of(cb, execbench.SPEC, fresh, committed)

    def test_identical_reports_pass(self, cb):
        assert self.check(cb, exec_report(), exec_report()) == []

    def test_uniform_slowdown_passes_normalised(self, cb):
        """A uniformly slower machine is not a regression."""
        assert self.check(cb, exec_report(ms=3.0), exec_report(ms=1.0)) == []

    def test_single_row_regression_fails(self, cb):
        fresh = exec_report()
        fresh["rows"][0]["ms_per_case"] = 10.0
        failures = self.check(cb, fresh, exec_report())
        assert len(failures) == 1
        assert "vs_baseline.relative[batched/fused]" in failures[0]

    def test_speedup_floor(self, cb):
        failures = self.check(cb, exec_report(speedup=1.05), exec_report())
        assert any("single_case.speedup_fused = 1.05, floor >= 1.2" in f
                   for f in failures)

    def test_kernel_divergence_fails(self, cb):
        failures = self.check(cb, exec_report(diff=1e-6), exec_report())
        assert any("max_abs_diff" in f for f in failures)

    def test_no_shared_rows(self, cb):
        fresh = exec_report()
        fresh["rows"] = [{"path": "other", "kernels": "fused",
                          "ms_per_case": 1.0}]
        failures = self.check(cb, fresh, exec_report())
        assert failures == ["BENCH_exec.json: vs_baseline.shared_rows = 0, "
                            "floor >= 1"]


# ---------------------------------------------------------- native fixtures
def native_report(speedup: float = 2.0, scaling: float = 1.6,
                  headroom: float = 1.8, gil_release: float = 0.4,
                  cores: int = 8, available: bool = True,
                  reason=None) -> dict:
    report = exec_report()
    if available:  # execbench only emits rows for backends that built
        report["rows"].append(
            {"path": "batched", "kernels": "native", "ms_per_case": 0.5})
    report["single_case"]["speedup_native"] = speedup if available else None
    report["native"] = {"available": available, "reason": reason,
                        "library": "/tmp/fbni.so" if available else None}
    report["thread_scaling"] = {
        "workers": 2, "cases": 160, "serial_ms": 10.0,
        "threaded_ms": 10.0 / scaling, "scaling": scaling,
        "headroom": headroom, "gil_release": gil_release,
        "cpu_count": cores,
    } if available else {"skipped": reason}
    return report


class TestNativeCheck:
    def check(self, cb, report):
        failures, notes, _ = cb.evaluate(execbench.SPEC, report)
        return failures, notes

    def test_pass(self, cb):
        failures, notes = self.check(cb, native_report())
        assert failures == [] and notes == []

    def test_schema1_report_notes_and_passes(self, cb):
        """Reports from before the native backend carry no gates."""
        failures, notes = self.check(cb, exec_report())
        assert failures == []
        assert notes and "schema 1" in notes[0]

    def test_unavailable_backend_notes_and_passes(self, cb):
        report = native_report(available=False, reason="no C compiler")
        failures, notes = self.check(cb, report)
        assert failures == []
        assert notes and "no C compiler" in notes[0]

    def test_speedup_floor_fails(self, cb):
        failures, _ = self.check(cb, native_report(speedup=1.1))
        assert any("single_case.speedup_native = 1.1, floor >= 1.5" in f
                   for f in failures)

    def test_missing_thread_scaling_fails(self, cb):
        report = native_report()
        report["thread_scaling"] = {}
        failures, _ = self.check(cb, report)
        assert any("report has no thread_scaling.scaling" in f
                   for f in failures)

    def test_gil_release_collapse_fails_everywhere(self, cb):
        """The GIL witness is machine-independent — it fails even on a
        small box where the scaling floor itself is degraded."""
        failures, _ = self.check(
            cb, native_report(gil_release=0.001, cores=2, scaling=0.9))
        assert any("thread_scaling.gil_release = 0.001, floor >= 0.05" in f
                   for f in failures)

    def test_scaling_floor_enforced_on_capable_machine(self, cb):
        failures, notes = self.check(
            cb, native_report(scaling=1.1, cores=8, headroom=1.8))
        assert any("thread_scaling.scaling = 1.1, floor >= 1.3" in f
                   for f in failures)
        assert notes == []

    def test_small_box_degrades_with_note(self, cb):
        """2-core runners get the bounded-overhead floor, not 1.3x."""
        failures, notes = self.check(cb, native_report(scaling=0.9, cores=2))
        assert failures == []
        assert notes and "degraded to bounded-overhead" in notes[0]

    def test_no_headroom_degrades_with_note(self, cb):
        """Plenty of cores but the ALU probe shows two GIL-free calls
        cannot overlap (stolen/shared vCPUs) — degrade, don't fail."""
        failures, notes = self.check(
            cb, native_report(scaling=1.0, cores=8, headroom=1.05))
        assert failures == []
        assert notes and "headroom probe measured 1.05x" in notes[0]

    def test_degraded_floor_still_bounds_overhead(self, cb):
        failures, _ = self.check(cb, native_report(scaling=0.3, cores=2))
        assert any("thread_scaling.scaling = 0.3, floor >= 0.5" in f
                   for f in failures)


# -------------------------------------------------------- sessions fixtures
def sessions_report(speedup: float = 6.0, diff: float = 1e-13) -> dict:
    return {
        "schema": "fastbni-bench-sessions-v1",
        "rows": [
            {"overlap": 0.5, "speedup": 2.0, "max_abs_diff": diff},
            {"overlap": 0.75, "speedup": speedup, "max_abs_diff": diff},
        ],
    }


class TestSessionsCheck:
    def check(self, cb, report):
        return failures_of(cb, overlap.SESSIONS, report)

    def test_pass(self, cb):
        assert self.check(cb, sessions_report()) == []

    def test_wrong_schema(self, cb):
        failures = self.check(cb, {"schema": "nope"})
        assert failures and "schema mismatch" in failures[0]

    def test_headline_speedup_floor(self, cb):
        failures = self.check(cb, sessions_report(speedup=3.0))
        assert any("rows[1].speedup = 3, floor >= 5" in f for f in failures)

    def test_missing_headline_row(self, cb):
        report = sessions_report()
        report["rows"] = [report["rows"][0]]
        failures = self.check(cb, report)
        assert any("no 0.75-overlap" in f for f in failures)

    def test_divergence_fails_every_row(self, cb):
        failures = self.check(cb, sessions_report(diff=1e-9))
        assert len(failures) == 2


class TestIncrementalCheck:
    """The acceptance that used to live in a docs block: >= 3x at every
    overlap >= 0.75, agreement strictly under 1e-12."""

    def report(self, speedup=4.0, diff=1e-15):
        return {"schema": "fastbni-bench-incremental-v1",
                "rows": [{"overlap": 0.5, "speedup": 1.2, "max_abs_diff": diff},
                         {"overlap": 0.75, "speedup": speedup,
                          "max_abs_diff": diff},
                         {"overlap": 1.0, "speedup": 9.0, "max_abs_diff": diff}]}

    def test_pass(self, cb):
        assert failures_of(cb, overlap.INCREMENTAL, self.report()) == []

    def test_high_overlap_floor(self, cb):
        failures = failures_of(cb, overlap.INCREMENTAL,
                               self.report(speedup=2.0))
        assert failures == ["BENCH_incremental.json: rows[1].speedup = 2, "
                            "floor >= 3"]

    def test_low_overlap_rows_are_not_held_to_the_floor(self, cb):
        report = self.report()
        report["rows"][0]["speedup"] = 0.5
        assert failures_of(cb, overlap.INCREMENTAL, report) == []

    def test_divergence_and_missing_rows_fail(self, cb):
        assert len(failures_of(cb, overlap.INCREMENTAL,
                               self.report(diff=1e-12))) == 3
        report = self.report()
        report["rows"] = report["rows"][:1]
        assert any("no 0.75-overlap" in f
                   for f in failures_of(cb, overlap.INCREMENTAL, report))


# ------------------------------------------------------------- obs fixtures
def obs_report(off: float = 1.0, sampled: float = 5.0,
               traces: int = 100, slow: int = 10,
               executed: int = 50, spans=None) -> dict:
    if spans is None:
        spans = sorted(cb_required_spans())
    return {
        "schema": "fastbni-bench-obs-v1",
        "modes": {
            "off": {"overhead_pct": off},
            "sampled_1pct": {"overhead_pct": sampled},
            "full": {"overhead_pct": 30.0,
                     "tracing": {"traces_sampled": traces,
                                 "slow_queries": slow}},
        },
        "witness": {"executed_traces": executed, "span_names": spans},
    }


def cb_required_spans():
    return set(obs.REQUIRED_SPANS)


class TestObsCheck:
    def check(self, cb, report):
        return failures_of(cb, obs.SPEC, report)

    def test_pass(self, cb):
        assert self.check(cb, obs_report()) == []

    def test_wrong_schema(self, cb):
        failures = self.check(cb, {"schema": "nope"})
        assert failures and "schema mismatch" in failures[0]

    def test_off_budget(self, cb):
        failures = self.check(cb, obs_report(off=3.5))
        assert any("modes.off.overhead_pct = 3.5, floor <= 2" in f
                   for f in failures)

    def test_sampled_budget(self, cb):
        failures = self.check(cb, obs_report(sampled=15.0))
        assert any("sampled_1pct" in f for f in failures)

    def test_no_traces_sampled(self, cb):
        failures = self.check(cb, obs_report(traces=0))
        assert any("traces_sampled = 0" in f for f in failures)

    def test_no_slow_log_entries(self, cb):
        failures = self.check(cb, obs_report(slow=0))
        assert any("slow_queries = 0" in f for f in failures)

    def test_witness_span_coverage(self, cb):
        failures = self.check(cb, obs_report(spans=["request", "parse"]))
        assert any("witness.span_names lacks" in f and "'execute'" in f
                   for f in failures)

    def test_no_executed_traces(self, cb):
        failures = self.check(cb, obs_report(executed=0))
        assert any("witness.executed_traces = 0" in f for f in failures)


# --------------------------------------------------------- cluster fixtures
def cluster_report(speedup: float = 2.5, workers: int = 4, cores: int = 8,
                   diff: float = 1e-12, cases: int = 40) -> dict:
    return {
        "schema": "fastbni-bench-cluster-v1",
        "config": {"workers": workers},
        "cpu_cores": cores,
        "speedup": speedup,
        "same_answer": {"max_abs_diff": diff, "cases": cases},
    }


class TestClusterCheck:
    def check(self, cb, report):
        return failures_of(cb, cluster.SPEC, report)

    def test_pass(self, cb):
        assert self.check(cb, cluster_report()) == []

    def test_wrong_schema(self, cb):
        failures = self.check(cb, {"schema": "nope"})
        assert failures and "schema mismatch" in failures[0]

    def test_floor_scales_with_machine(self):
        assert cluster.cluster_floor(4, 2) == pytest.approx(0.75)
        assert cluster.cluster_floor(4, 8) == pytest.approx(2.4)
        assert cluster.cluster_floor(8, 16) == pytest.approx(3.0)

    def test_small_box_tolerates_no_speedup(self, cb):
        assert self.check(cb, cluster_report(speedup=0.9, cores=2)) == []

    def test_speedup_floor_fails(self, cb):
        failures = self.check(cb, cluster_report(speedup=1.2))
        assert failures == ["BENCH_cluster.json: speedup = 1.2, floor >= 2.4"]

    def test_answer_divergence_fails(self, cb):
        failures = self.check(cb, cluster_report(diff=1e-6))
        assert any("same_answer.max_abs_diff" in f for f in failures)

    def test_no_witness_cases_fails(self, cb):
        failures = self.check(cb, cluster_report(cases=0))
        assert any("same_answer.cases = 0" in f for f in failures)

    def test_missing_config(self, cb):
        failures = self.check(cb, {"schema": "fastbni-bench-cluster-v1"})
        assert any("speedup" in f and "config" in f for f in failures)


# -------------------------------------------------------- ablation fixtures
def ablation_report(components=None, base_errors: int = 0) -> dict:
    if components is None:
        components = {"cache": 1.4, "batcher": 1.3, "fused_kernels": 1.25,
                      "planner": 1.2, "sessions_warm": 1.18}
    rows = []
    for rank, (name, ratio) in enumerate(
            sorted(components.items(), key=lambda kv: -kv[1]), start=1):
        rows.append({
            "component": name,
            "rank": rank,
            "rps": 100.0 / ratio,
            "rps_ratio": ratio,
            "errors": 0,
            "agreement": {"checked": 50, "missing": 0, "mismatched": 0,
                          "max_abs_diff": 1e-15},
        })
    return {
        "schema": "fastbni-bench-ablation-v1",
        "baseline": {"rps": 100.0, "errors": base_errors},
        "components": rows,
    }


class TestAblationCheck:
    def check(self, cb, report, committed=None):
        return failures_of(cb, ablation_matrix.SPEC, report, committed)

    def test_pass_against_self(self, cb):
        report = ablation_report()
        assert self.check(cb, report, report) == []

    def test_pass_without_baseline(self, cb):
        assert self.check(cb, ablation_report()) == []

    def test_wrong_schema(self, cb):
        failures = self.check(cb, {"schema": "nope"})
        assert failures and "schema mismatch" in failures[0]

    def test_empty_matrix_fails(self, cb):
        report = ablation_report()
        report["components"] = []
        assert self.check(cb, report) == [
            "BENCH_ablation.json: components[rank=1].rps_ratio: "
            "no 1-rank row in components"]

    def test_answer_divergence_fails(self, cb):
        report = ablation_report()
        report["components"][0]["agreement"]["max_abs_diff"] = 1e-6
        failures = self.check(cb, report)
        assert any("components[0].agreement.max_abs_diff" in f
                   for f in failures)

    def test_mismatched_events_fail(self, cb):
        report = ablation_report()
        report["components"][1]["agreement"]["mismatched"] = 3
        failures = self.check(cb, report)
        assert any("components[1].agreement.mismatched = 3" in f
                   for f in failures)

    def test_unchecked_variant_fails(self, cb):
        """Zero checked events means the agreement gate proved nothing."""
        report = ablation_report()
        report["components"][0]["agreement"]["checked"] = 0
        failures = self.check(cb, report)
        assert any("components[0].agreement.checked = 0" in f
                   for f in failures)

    def test_replay_errors_fail(self, cb):
        report = ablation_report()
        report["components"][0]["errors"] = 2
        failures = self.check(cb, report)
        assert any("components[0].errors = 2" in f for f in failures)

    def test_baseline_errors_fail(self, cb):
        report = ablation_report(base_errors=1)
        failures = self.check(cb, report)
        assert failures

    def test_committed_artifact_needs_min_components(self, cb):
        fresh = ablation_report()
        committed = ablation_report(components={"cache": 1.4})
        failures = self.check(cb, fresh, committed)
        assert any("vs_baseline.ranked = 1, floor >= 5" in f
                   for f in failures)

    def test_smoke_subset_passes_full_baseline(self, cb):
        """A CI smoke run covering fewer components is fine — the
        min-components floor applies to the committed artifact."""
        fresh = ablation_report(components={"cache": 1.35})
        committed = ablation_report()
        assert self.check(cb, fresh, committed) == []

    def test_erased_contribution_fails(self, cb):
        """The gate's reason to exist: a component whose committed win
        collapses to ~1.0x fresh must fail even with perfect answers."""
        fresh = ablation_report()
        for row in fresh["components"]:
            if row["component"] == "cache":
                row["rps_ratio"] = 1.01
        committed = ablation_report()  # cache committed at 1.40x
        failures = self.check(cb, fresh, committed)
        assert len(failures) == 1
        assert "vs_baseline.retained[cache]" in failures[0]

    def test_retained_fraction_passes(self, cb):
        """Noise-level sag within the retain fraction is tolerated."""
        fresh = ablation_report()
        for row in fresh["components"]:
            if row["component"] == "cache":
                row["rps_ratio"] = 1.15  # >= 1 + 0.25 * (1.40 - 1)
        assert self.check(cb, fresh, ablation_report()) == []

    def test_small_committed_contributions_unguarded(self, cb):
        """Components near 1.0x in the committed run are noise; their
        fresh ratio may wander below 1.0 freely."""
        fresh = ablation_report()
        committed = ablation_report()
        for report, ratio in ((fresh, 0.97), (committed, 1.14)):
            for row in report["components"]:
                if row["component"] == "sessions_warm":
                    row["rps_ratio"] = ratio
        assert self.check(cb, fresh, committed) == []

    def test_baseline_schema_mismatch(self, cb):
        failures = self.check(cb, ablation_report(), {"schema": "nope"})
        assert any("baseline schema" in f for f in failures)

    def test_native_kernels_exempt_when_backend_unavailable(self, cb):
        """On a toolchain-less runner the native_kernels off-variant runs
        the same fused backend as the matrix baseline, so its committed
        contribution cannot be retained — and must not fail the gate."""
        committed = ablation_report(
            components={"cache": 1.4, "batcher": 1.3, "native_kernels": 1.5,
                        "planner": 1.2, "sessions_warm": 1.18})
        fresh = ablation_report(
            components={"cache": 1.4, "batcher": 1.3, "native_kernels": 1.0,
                        "planner": 1.2, "sessions_warm": 1.18})
        fresh["native"] = {"available": False, "reason": "no C compiler"}
        assert self.check(cb, fresh, committed) == []
        # With the backend available the same collapse is a hard fail.
        fresh["native"] = {"available": True, "reason": None}
        failures = self.check(cb, fresh, committed)
        assert any("vs_baseline.retained[native_kernels]" in f
                   for f in failures)


# --------------------------------------------------------------------- main
class TestMain:
    def write(self, tmp_path: Path, name: str, payload: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_options_are_artifact_paths_only(self, cb, capsys):
        """No threshold flag: a floor changes where its row is declared."""
        with pytest.raises(SystemExit):
            cb.main(["--help"])
        options = {word.split()[0].rstrip(",")
                   for word in capsys.readouterr().out.split("\n  ")
                   if word.startswith("--")}
        assert options == {"--fresh", "--baseline", "--sessions-fresh",
                           "--incremental", "--obs", "--cluster",
                           "--ablation", "--ablation-baseline"}

    def test_exec_pass_and_fail(self, cb, tmp_path, capsys):
        fresh = self.write(tmp_path, "fresh.json", exec_report())
        base = self.write(tmp_path, "base.json", exec_report())
        assert cb.main(["--fresh", fresh, "--baseline", base]) == 0
        assert "bench ok" in capsys.readouterr().out

        bad = self.write(tmp_path, "bad.json", exec_report(speedup=1.0))
        assert cb.main(["--fresh", bad, "--baseline", base]) == 1
        assert "BENCH REGRESSION" in capsys.readouterr().err

    def test_native_floors_wired_into_main(self, cb, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", native_report())
        good = self.write(tmp_path, "good.json", native_report())
        assert cb.main(["--fresh", good, "--baseline", base]) == 0
        out = capsys.readouterr().out
        assert "single_case.speedup_native 2 (>= 1.5)" in out
        assert "thread_scaling.scaling 1.6 (>= 1.3)" in out

        bad = self.write(tmp_path, "bad.json", native_report(speedup=1.1))
        assert cb.main(["--fresh", bad, "--baseline", base]) == 1
        assert ("single_case.speedup_native = 1.1, floor >= 1.5"
                in capsys.readouterr().err)

    def test_small_box_note_printed_by_main(self, cb, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", native_report())
        small = self.write(tmp_path, "small.json",
                           native_report(scaling=0.9, cores=2))
        assert cb.main(["--fresh", small, "--baseline", base]) == 0
        assert "degraded to bounded-overhead" in capsys.readouterr().out

    def test_compilerless_fresh_passes_native_baseline(self, cb, tmp_path,
                                                       capsys):
        """A toolchain-less runner's fresh report (no native rows) must
        still compare cleanly against a committed artifact that has
        them — intersection rows only, native gates noted as skipped."""
        base = self.write(tmp_path, "base.json", native_report())
        fresh = self.write(
            tmp_path, "fresh.json",
            native_report(available=False, reason="no C compiler"))
        assert cb.main(["--fresh", fresh, "--baseline", base]) == 0
        out = capsys.readouterr().out
        assert "note: native gates skipped" in out

    def test_schema_mismatch_exits_1(self, cb, tmp_path, capsys):
        fresh = exec_report()
        fresh["schema"] = "other"
        fresh_path = self.write(tmp_path, "fresh.json", fresh)
        base = self.write(tmp_path, "base.json", exec_report())
        assert cb.main(["--fresh", fresh_path, "--baseline", base]) == 1
        assert "schema mismatch" in capsys.readouterr().err

    def test_sessions_flag(self, cb, tmp_path, capsys):
        fresh = self.write(tmp_path, "fresh.json", exec_report())
        base = self.write(tmp_path, "base.json", exec_report())
        good = self.write(tmp_path, "sessions.json", sessions_report())
        assert cb.main(["--fresh", fresh, "--baseline", base,
                        "--sessions-fresh", good]) == 0
        assert ("rows[overlap=0.75].speedup 6 (>= 5)"
                in capsys.readouterr().out)
        bad = self.write(tmp_path, "bad_sessions.json",
                         sessions_report(speedup=1.0))
        assert cb.main(["--fresh", fresh, "--baseline", base,
                        "--sessions-fresh", bad]) == 1

    def test_obs_flag(self, cb, tmp_path, capsys):
        fresh = self.write(tmp_path, "fresh.json", exec_report())
        base = self.write(tmp_path, "base.json", exec_report())
        good = self.write(tmp_path, "obs.json", obs_report())
        assert cb.main(["--fresh", fresh, "--baseline", base,
                        "--obs", good]) == 0
        assert ("modes.off.overhead_pct 1 (<= 2)"
                in capsys.readouterr().out)
        bad = self.write(tmp_path, "bad_obs.json", obs_report(off=9.0))
        assert cb.main(["--fresh", fresh, "--baseline", base,
                        "--obs", bad]) == 1

    def test_cluster_flag(self, cb, tmp_path, capsys):
        fresh = self.write(tmp_path, "fresh.json", exec_report())
        base = self.write(tmp_path, "base.json", exec_report())
        good = self.write(tmp_path, "cluster.json", cluster_report())
        assert cb.main(["--fresh", fresh, "--baseline", base,
                        "--cluster", good]) == 0
        assert "speedup 2.5 (>= 2.4)" in capsys.readouterr().out
        bad = self.write(tmp_path, "bad_cluster.json",
                         cluster_report(diff=1.0))
        assert cb.main(["--fresh", fresh, "--baseline", base,
                        "--cluster", bad]) == 1

    def test_ablation_flag_standalone(self, cb, tmp_path, capsys):
        """--fresh '' gates a single artifact — the ablation-smoke job."""
        good = self.write(tmp_path, "ablation.json", ablation_report())
        committed = self.write(tmp_path, "committed.json", ablation_report())
        assert cb.main(["--fresh", "", "--ablation", good,
                        "--ablation-baseline", committed]) == 0
        out = capsys.readouterr().out
        assert "BENCH_exec.json: check skipped" in out
        assert "components[rank=1].rps_ratio 1.4 (> 0)" in out
        assert "vs_baseline.ranked 5 (>= 5)" in out

    def test_ablation_flag_fail(self, cb, tmp_path, capsys):
        bad = ablation_report()
        bad["components"][0]["agreement"]["max_abs_diff"] = 1e-3
        bad_path = self.write(tmp_path, "bad.json", bad)
        committed = self.write(tmp_path, "committed.json", ablation_report())
        assert cb.main(["--fresh", "", "--ablation", bad_path,
                        "--ablation-baseline", committed]) == 1
        assert "BENCH REGRESSION" in capsys.readouterr().err

    def test_ablation_missing_committed_artifact_fails(self, cb, tmp_path):
        good = self.write(tmp_path, "ablation.json", ablation_report())
        assert cb.main(["--fresh", "", "--ablation", good,
                        "--ablation-baseline",
                        str(tmp_path / "absent.json")]) == 1

    def test_committed_artifacts_pass_their_own_gates(self, cb, capsys):
        """The repo's committed artifacts must satisfy the gates they
        anchor (self-vs-self for exec; absolute for the rest)."""
        args = ["--fresh", str(REPO_ROOT / "BENCH_exec.json"),
                "--baseline", str(REPO_ROOT / "BENCH_exec.json")]
        for flag, name in (("--sessions-fresh", "sessions"), ("--obs", "obs"),
                           ("--incremental", "incremental"),
                           ("--cluster", "cluster"),
                           ("--ablation", "ablation")):
            args += [flag, str(REPO_ROOT / f"BENCH_{name}.json")]
        assert cb.main(args) == 0
        assert "bench ok" in capsys.readouterr().out
