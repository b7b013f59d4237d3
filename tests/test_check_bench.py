"""Direct unit tests for every artifact's gate rows and their evaluator.

check_bench guards CI: if *it* silently breaks, every bench regression
sails through.  These tests hold each spec's rows (table1, sessions,
incremental, obs, ablation) against synthetic reports on both the pass
and the fail path — a failure must name the JSON path of the row that
caught it — plus ``main()``'s wiring (flag routing, exit codes, unnamed
reports unchecked).  ``cb`` is the tool, loaded by ``conftest.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import ablation_matrix, obs, overlap, table1

REPO_ROOT = Path(__file__).resolve().parent.parent


def failures_of(cb, spec, report, committed=None) -> list[str]:
    return cb.evaluate(spec, report, committed)[0]


# ---------------------------------------------------------- table1 fixtures
def table1_report(*speedups: float) -> dict:
    per_case = {"unbbayes": 1.0, "fastbni-seq": 0.1, "element": 0.5,
                "direct": 0.2, "primitive": 0.2, "fastbni-par": 0.1}
    rows = []
    for network, speedup in zip(("hailfinder", "pathfinder"),
                                speedups or (16.0, 40.0)):
        row = table1.table1_row(network, dict(per_case), {}, cases=1)
        row["seq_speedup"] = speedup
        rows.append(row)
    return {"schema": table1.SCHEMA, "cpu_count": 2, "rows": rows}


class TestTable1Check:
    def check(self, cb, report):
        return failures_of(cb, table1.SPEC, report)

    def test_pass(self, cb):
        assert self.check(cb, table1_report()) == []

    def test_wrong_schema(self, cb):
        failures = self.check(cb, {"schema": "nope"})
        assert failures and "schema mismatch" in failures[0]

    def test_doctored_seq_speedup_fails(self, cb):
        """Fast-BNI-seq slower than 1.2x the UnBBayes-style engine is a
        regression on any machine: both run single-threaded."""
        failures = self.check(cb, table1_report(16.0, 0.9))
        assert failures == ["BENCH_table1.json: rows[1].seq_speedup = 0.9, "
                            "floor >= 1.2"]


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


# -------------------------------------------------------- ablation fixtures
def ablation_report(components=None, base_errors: int = 0) -> dict:
    if components is None:
        components = {"cache": 1.4, "batcher": 1.3, "fused_kernels": 1.25,
                      "planner": 1.2, "native_kernels": 1.18}
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
                if row["component"] == "native_kernels":
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
                        "planner": 1.2, "fused_kernels": 1.18})
        fresh = ablation_report(
            components={"cache": 1.4, "batcher": 1.3, "native_kernels": 1.0,
                        "planner": 1.2, "fused_kernels": 1.18})
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
        assert options == {"--table1", "--sessions-fresh", "--incremental",
                           "--obs", "--ablation", "--ablation-baseline"}

    def test_table1_flag(self, cb, tmp_path, capsys):
        good = self.write(tmp_path, "table1.json", table1_report())
        assert cb.main(["--table1", good]) == 0
        assert "rows[*].seq_speedup 16 (>= 1.2)" in capsys.readouterr().out
        bad = self.write(tmp_path, "bad.json", table1_report(16.0, 0.9))
        assert cb.main(["--table1", bad]) == 1
        assert ("rows[1].seq_speedup = 0.9, floor >= 1.2"
                in capsys.readouterr().err)

    def test_schema_mismatch_exits_1(self, cb, tmp_path, capsys):
        report = table1_report()
        report["schema"] = "other"
        assert cb.main(["--table1", self.write(tmp_path, "t.json",
                                               report)]) == 1
        assert "schema mismatch" in capsys.readouterr().err

    def test_sessions_flag(self, cb, tmp_path, capsys):
        good = self.write(tmp_path, "sessions.json", sessions_report())
        assert cb.main(["--sessions-fresh", good]) == 0
        assert ("rows[overlap=0.75].speedup 6 (>= 5)"
                in capsys.readouterr().out)
        bad = self.write(tmp_path, "bad_sessions.json",
                         sessions_report(speedup=1.0))
        assert cb.main(["--sessions-fresh", bad]) == 1

    def test_obs_flag(self, cb, tmp_path, capsys):
        good = self.write(tmp_path, "obs.json", obs_report())
        assert cb.main(["--obs", good]) == 0
        assert ("modes.off.overhead_pct 1 (<= 2)"
                in capsys.readouterr().out)
        bad = self.write(tmp_path, "bad_obs.json", obs_report(off=9.0))
        assert cb.main(["--obs", bad]) == 1

    def test_ablation_flag_standalone(self, cb, tmp_path, capsys):
        """A report not named is not checked: the ablation-smoke job
        gates one artifact."""
        good = self.write(tmp_path, "ablation.json", ablation_report())
        committed = self.write(tmp_path, "committed.json", ablation_report())
        assert cb.main(["--ablation", good,
                        "--ablation-baseline", committed]) == 0
        out = capsys.readouterr().out
        assert "components[rank=1].rps_ratio 1.4 (> 0)" in out
        assert "vs_baseline.ranked 5 (>= 5)" in out
        assert "BENCH_table1.json" not in out

    def test_ablation_flag_fail(self, cb, tmp_path, capsys):
        bad = ablation_report()
        bad["components"][0]["agreement"]["max_abs_diff"] = 1e-3
        bad_path = self.write(tmp_path, "bad.json", bad)
        committed = self.write(tmp_path, "committed.json", ablation_report())
        assert cb.main(["--ablation", bad_path,
                        "--ablation-baseline", committed]) == 1
        assert "BENCH REGRESSION" in capsys.readouterr().err

    def test_ablation_missing_committed_artifact_fails(self, cb, tmp_path):
        good = self.write(tmp_path, "ablation.json", ablation_report())
        assert cb.main(["--ablation", good, "--ablation-baseline",
                        str(tmp_path / "absent.json")]) == 1

    def test_committed_artifacts_pass_their_own_gates(self, cb, capsys):
        """The repo's committed artifacts must satisfy the gates they
        anchor (the ablation matrix against itself)."""
        args = []
        for flag, name in (("--table1", "table1"),
                           ("--sessions-fresh", "sessions"), ("--obs", "obs"),
                           ("--incremental", "incremental"),
                           ("--ablation", "ablation")):
            args += [flag, str(REPO_ROOT / f"BENCH_{name}.json")]
        assert cb.main(args) == 0
        assert "bench ok" in capsys.readouterr().out
