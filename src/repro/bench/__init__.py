"""Benchmarks reproducing the paper's evaluation and gating the repo's own.

* :mod:`repro.bench.table1`, :mod:`repro.bench.figures`,
  :mod:`repro.bench.microbench` — the paper's Table 1 and Fig A–E studies,
  over :mod:`repro.bench.workload` / :mod:`repro.bench.runner` /
  :mod:`repro.bench.report`;
* :mod:`repro.bench.registry` — the ``BENCH_*.json`` artifact specs
  (:mod:`repro.bench.artifact`), the serving-side ones measured by the one
  comparison harness (:mod:`repro.bench.harness`) over replayed traffic
  traces (:mod:`repro.bench.traffic`).
"""
