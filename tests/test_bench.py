"""Tests for the Table-1 benchmark (workloads, engine timing, rows, rendering)."""

import pytest

from repro.bench.table1 import (
    DEFAULT_CASES,
    ENGINE_FACTORIES,
    MIN_SEQ_SPEEDUP,
    OBSERVED_FRACTION,
    PAPER_TABLE1,
    PARALLEL_ENGINES,
    SEQUENTIAL_ENGINES,
    best_of_threads,
    build_workload,
    fmt_seconds,
    fmt_speedup,
    format_table,
    make_engine,
    render_rows,
    render_table1,
    run_engine,
    table1_row,
    time_engine,
)
from repro.bn.sampling import generate_test_cases


class TestWorkload:
    def test_build_deterministic(self):
        w1 = build_workload("hailfinder", 3)
        w2 = build_workload("hailfinder", 3)
        assert [c.evidence for c in w1.cases] == [c.evidence for c in w2.cases]

    def test_default_case_counts(self):
        wl = build_workload("hailfinder")
        assert len(wl.cases) == DEFAULT_CASES["hailfinder"]

    def test_paper_observed_fraction(self):
        wl = build_workload("hailfinder", 2)
        expected = round(OBSERVED_FRACTION * wl.net.num_variables)
        assert all(len(c.evidence) == expected for c in wl.cases)


class TestRunner:
    def test_registry_covers_table1_columns(self):
        assert set(SEQUENTIAL_ENGINES + PARALLEL_ENGINES) == set(ENGINE_FACTORIES)

    def test_make_engine_unknown(self, asia):
        with pytest.raises(KeyError):
            make_engine("quantum", asia)

    def test_time_engine_counts_cases(self, asia):
        eng = make_engine("fastbni-seq", asia)
        cases = generate_test_cases(asia, 4, 0.25, rng=0)
        stats = time_engine(eng, cases)
        assert stats.count == 4
        eng.close()

    def test_max_cases_truncates(self, asia):
        cases = generate_test_cases(asia, 5, 0.25, rng=0)
        stats = run_engine("fastbni-seq", asia, cases, max_cases=2)
        assert stats.count == 2

    def test_engines_produce_positive_times(self, asia):
        cases = generate_test_cases(asia, 1, 0.25, rng=0)
        for kind in SEQUENTIAL_ENGINES:
            stats = run_engine(kind, asia, cases)
            assert stats.mean > 0

    def test_best_of_threads_picks_minimum(self, asia):
        cases = generate_test_cases(asia, 1, 0.25, rng=0)
        best_t, stats, curve = best_of_threads("fastbni-par", asia, cases, sweep=(1, 2))
        assert best_t in (1, 2)
        assert stats.mean == min(curve.values())
        assert set(curve) == {1, 2}


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["name", "val"], [["a", "1"], ["bb", "22"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2] and "val" in lines[2]
        assert len({len(line) for line in lines[2:]}) <= 2  # consistent width

    def test_fmt_seconds_scales(self):
        assert fmt_seconds(5e-7).endswith("us")
        assert fmt_seconds(0.005).endswith("ms")
        assert fmt_seconds(3.0).endswith("s")
        assert fmt_seconds(300).endswith("min")
        assert fmt_seconds(float("nan")) == "-"

    def test_fmt_speedup(self):
        assert fmt_speedup(2.5) == "2.5x"
        assert fmt_speedup(float("nan")) == "-"


def measured(unbbayes=10.0, seq=2.0, direct=4.0, primitive=3.0, element=6.0,
             par=1.0) -> dict[str, float]:
    return {"unbbayes": unbbayes, "fastbni-seq": seq, "element": element,
            "direct": direct, "primitive": primitive, "fastbni-par": par}


class TestTable1Driver:
    def test_paper_reference_has_all_networks(self):
        assert set(PAPER_TABLE1) == {
            "hailfinder", "pathfinder", "diabetes", "pigs", "munin2", "munin4"
        }
        # The gated floor is the paper's smallest sequential speedup.
        assert MIN_SEQ_SPEEDUP == PAPER_TABLE1["munin2"][2] == 1.2

    def test_row_speedups(self):
        row = table1_row("hailfinder", measured(), {}, cases=1)
        assert row["seq_speedup"] == pytest.approx(5.0)
        assert row["par_speedup"] == {"direct": 4.0, "primitive": 3.0,
                                      "element": 6.0}
        assert row["paper"]["seq_speedup"] == 7.1

    def test_render_rows(self):
        row = table1_row("pigs", measured(unbbayes=1.0, seq=0.5, direct=0.4,
                                          primitive=0.3, element=0.6,
                                          par=0.2),
                         {"fastbni-par": 8}, cases=1)
        out = render_rows([row], batch=10)
        assert "pigs" in out and "2.0x" in out and "11.7x" in out

    def test_parallel_columns_unproven_on_small_boxes(self):
        report = {"cpu_count": 2,
                  "rows": [table1_row("pigs", measured(), {}, cases=1)]}
        assert "unproven on < 4 cores" in render_table1(report)
        report["cpu_count"] = 8
        assert "unproven" not in render_table1(report)
