"""Tests for the service-level ablation matrix runner."""

from __future__ import annotations

import json

import pytest

from repro.bench.ablation_matrix import (AGREEMENT_TOLERANCE, COMPONENTS,
                                         SCHEMA, _agreement, _answer_diff,
                                         render_ablation, run_ablation)
from repro.bench.artifact import write_report
from repro.bench.traffic import generate_trace
from repro.errors import QueryError

FAST_MIX = {"zipf": 0.5, "burst": 0.2, "session": 0.3}


# ---------------------------------------------------------------- answer diff
class TestAnswerDiff:
    def test_identical_is_zero(self):
        answer = {"posteriors": {"lung": [0.3, 0.7]}, "log_evidence": -1.5}
        assert _answer_diff(answer, dict(answer)) == 0.0

    def test_numeric_difference_measured(self):
        a = {"posteriors": {"lung": [0.3, 0.7]}, "log_evidence": -1.5}
        b = {"posteriors": {"lung": [0.3, 0.7 + 1e-7]}, "log_evidence": -1.5}
        assert _answer_diff(a, b) == pytest.approx(1e-7)

    def test_log_evidence_difference_measured(self):
        a = {"posteriors": {}, "log_evidence": -1.5}
        b = {"posteriors": {}, "log_evidence": -1.5 + 2e-8}
        assert _answer_diff(a, b) == pytest.approx(2e-8)

    def test_missing_target_is_infinite(self):
        a = {"posteriors": {"lung": [0.3, 0.7]}, "log_evidence": None}
        b = {"posteriors": {}, "log_evidence": None}
        assert _answer_diff(a, b) == float("inf")

    def test_shape_mismatch_is_infinite(self):
        a = {"posteriors": {"lung": [0.3, 0.7]}, "log_evidence": None}
        b = {"posteriors": {"lung": [0.2, 0.3, 0.5]}, "log_evidence": None}
        assert _answer_diff(a, b) == float("inf")

    def test_log_evidence_presence_mismatch_is_infinite(self):
        a = {"posteriors": {}, "log_evidence": -1.0}
        b = {"posteriors": {}, "log_evidence": None}
        assert _answer_diff(a, b) == float("inf")


class TestAgreement:
    def test_clean_agreement(self):
        answers = {0: {"posteriors": {"x": [0.5, 0.5]}, "log_evidence": -1.0}}
        agree = _agreement(answers, {0: dict(answers[0])})
        assert agree == {"checked": 1, "missing": 0, "mismatched": 0,
                        "max_abs_diff": 0.0}

    def test_counts_mismatches(self):
        base = {0: {"posteriors": {"x": [0.5, 0.5]}, "log_evidence": -1.0},
                1: {"posteriors": {"x": [0.1, 0.9]}, "log_evidence": -2.0}}
        variant = {0: dict(base[0]),
                   1: {"posteriors": {"x": [0.2, 0.8]}, "log_evidence": -2.0}}
        agree = _agreement(base, variant)
        assert agree["checked"] == 2
        assert agree["mismatched"] == 1
        assert agree["max_abs_diff"] == pytest.approx(0.1)

    def test_disjoint_answer_sets(self):
        agree = _agreement({0: {"posteriors": {}}}, {1: {"posteriors": {}}})
        assert agree["checked"] == 0
        assert agree["missing"] == 2
        assert agree["max_abs_diff"] == float("inf")


# --------------------------------------------------------------------- matrix
class TestRunAblation:
    @pytest.fixture(scope="class")
    def report(self):
        return run_ablation(seed=31, requests=24, repeats=1, concurrency=2,
                            components=["cache", "batcher"],
                            trace_kwargs={"mix": FAST_MIX})

    def test_schema_and_structure(self, report):
        assert report["schema"] == SCHEMA
        assert report["config"]["components"] == ["cache", "batcher"]
        assert report["config"]["generated_trace"] is True
        assert report["trace"]["events"] == 24
        assert report["baseline"]["requests"] == 24
        assert report["baseline"]["errors"] == 0

    def test_components_ranked_by_contribution(self, report):
        rows = report["components"]
        assert [r["rank"] for r in rows] == [1, 2]
        assert rows[0]["rps_ratio"] >= rows[1]["rps_ratio"]
        for row in rows:
            assert row["component"] in COMPONENTS
            assert row["off_kwargs"] == COMPONENTS[row["component"]]["off"]
            assert row["requests"] == 24
            assert row["errors"] == 0

    def test_all_variants_agree_with_baseline(self, report):
        for row in report["components"]:
            agree = row["agreement"]
            assert agree["checked"] > 0
            assert agree["mismatched"] == 0
            assert agree["max_abs_diff"] <= AGREEMENT_TOLERANCE

    def test_report_is_json_serializable(self, report, tmp_path):
        path = write_report(report, tmp_path / "BENCH_ablation.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == SCHEMA
        assert len(loaded["components"]) == 2

    def test_render_names_every_component(self, report):
        text = render_ablation(report)
        assert "baseline:" in text
        for row in report["components"]:
            assert row["component"] in text
        assert "x-off" in text

    def test_unknown_component_rejected(self):
        with pytest.raises(QueryError, match="unknown ablation components"):
            run_ablation(requests=5, components=["warp_drive"])

    def test_explicit_trace_is_used(self):
        trace = generate_trace(seed=41, requests=10, mix={"zipf": 1.0})
        report = run_ablation(trace, components=["batcher"], repeats=1,
                              concurrency=2)
        assert report["config"]["generated_trace"] is False
        assert report["trace"]["events"] == 10
        assert report["seed"] == 41
        agree = report["components"][0]["agreement"]
        assert agree["checked"] == 10
        assert agree["max_abs_diff"] <= AGREEMENT_TOLERANCE
