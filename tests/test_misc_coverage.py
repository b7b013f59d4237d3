"""Final coverage round: combined evidence forms, batched hybrid
inference, report rendering edge cases."""

import numpy as np

from repro.baselines.enumeration import EnumerationEngine
from repro.bn.sampling import generate_test_cases
from repro.core import FastBNI


class TestCombinedEvidence:
    def test_hard_plus_soft(self, asia):
        """Hard and soft evidence compose multiplicatively."""
        like = np.array([0.6, 0.1])
        with FastBNI(asia, mode="seq") as engine:
            got = engine.infer({"smoke": "yes"}, soft_evidence={"xray": like})
        # Oracle: reduce joint on smoke, weight by likelihood on xray.
        en = EnumerationEngine(asia)
        from repro.potential.ops import marginalize, reduce_evidence_inplace

        work = en.joint.copy()
        reduce_evidence_inplace(work, {"smoke": "yes"})
        xray_axis_vals = like[
            np.array([en.domain.unflatten(i)["xray"] for i in range(en.domain.size)])
        ]
        work.values *= xray_axis_vals
        m = marginalize(work, ("lung",))
        expected = m.values / m.values.sum()
        assert np.allclose(got.posteriors["lung"], expected, atol=1e-10)

    def test_soft_evidence_on_parallel_engine(self, asia):
        with FastBNI(asia, mode="hybrid", num_workers=2) as par, \
                FastBNI(asia, mode="seq") as seq:
            soft = {"dysp": [0.9, 0.3]}
            a = par.infer(soft_evidence=soft)
            b = seq.infer(soft_evidence=soft)
        for name in asia.variable_names:
            assert np.allclose(a.posteriors[name], b.posteriors[name], atol=1e-10)


class TestBatchedHybrid:
    def test_hybrid_batch_matches_seq_batch(self, asia):
        cases = generate_test_cases(asia, 4, 0.25, rng=8)
        with FastBNI(asia, mode="hybrid", num_workers=2) as h, \
                FastBNI(asia, mode="seq") as s:
            hb = h.infer_batch(cases)
            sb = s.infer_batch(cases)
        for a, b in zip(hb, sb):
            for name in asia.variable_names:
                assert np.allclose(a.posteriors[name], b.posteriors[name], atol=1e-9)

    def test_batch_respects_targets(self, asia):
        cases = generate_test_cases(asia, 2, 0.25, rng=9)
        with FastBNI(asia, mode="seq") as engine:
            results = engine.infer_batch(cases, targets=("lung",))
        assert all(set(r.posteriors) == {"lung"} for r in results)


class TestReportEdgeCases:
    def test_format_table_empty_rows(self):
        from repro.bench.table1 import format_table

        out = format_table(["a", "b"], [])
        assert "a" in out

    def test_render_rows_without_best_t(self):
        from repro.bench.table1 import render_rows, table1_row

        per_case = dict.fromkeys(("unbbayes", "fastbni-seq", "element",
                                  "direct", "primitive", "fastbni-par"), 1.0)
        row = table1_row("munin4", per_case, best_t={}, cases=1)
        lines = render_rows([row]).splitlines()
        assert lines[-1].startswith("munin4") and lines[-1].endswith("-")
