"""Benchmarks reproducing the paper's evaluation and gating the repo's own.

Every ``BENCH_*.json`` artifact is one spec (:mod:`repro.bench.artifact`)
listed in :mod:`repro.bench.registry`:

* :mod:`repro.bench.table1` — the paper's Table 1, every engine on every
  analog;
* the serving-side ones, measured by the one comparison harness
  (:mod:`repro.bench.harness`) over replayed traffic traces
  (:mod:`repro.bench.traffic`), and the exact-vs-approx frontier.
"""
