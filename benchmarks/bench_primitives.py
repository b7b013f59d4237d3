"""Fig D: the three dominant potential-table operations (paper §2).

Per operation and table size, compares the pure-Python entry loop
(UnBBayes style), the vectorised index-mapping kernel (Fast-BNI-seq) and
the chunked thread-parallel kernel (Fast-BNI-par's inner work unit).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import bench_threads
from repro.bench.microbench import make_domain
from repro.exec.kernels import absorb_chunk, marg_chunk, triples_to_map
from repro.parallel.backend import ThreadBackend
from repro.parallel.chunking import chunk_ranges

SIZES = {"small(4^4)": (4, 4), "medium(4^6)": (6, 4), "large(4^9)": (9, 4)}


def _setup(num_vars, card):
    src, dst = make_domain(num_vars, card)
    rng = np.random.default_rng(0)
    values = rng.random(src.size)
    triples = tuple((src.stride(v), src.card(v), dst.stride(v)) for v in dst.variables)
    return src, dst, values, triples


@pytest.mark.parametrize("label", SIZES, ids=list(SIZES))
def test_marginalize_vectorised(benchmark, label):
    src, dst, values, triples = _setup(*SIZES[label])
    benchmark(marg_chunk, values, 0, src.size, triples, dst.size)


@pytest.mark.parametrize("label", SIZES, ids=list(SIZES))
def test_marginalize_cached_map(benchmark, label):
    src, dst, values, triples = _setup(*SIZES[label])
    imap = triples_to_map(src.size, triples)
    benchmark(marg_chunk, values, 0, src.size, triples, dst.size, imap)


@pytest.mark.parametrize("label", SIZES, ids=list(SIZES))
def test_marginalize_chunked_parallel(benchmark, label):
    src, dst, values, triples = _setup(*SIZES[label])
    imap = triples_to_map(src.size, triples)
    pool = ThreadBackend(bench_threads())
    chunks = chunk_ranges(src.size, bench_threads() * 2, min_chunk=1024)

    def run():
        tasks = [(marg_chunk, (values, lo, hi, triples, dst.size, imap))
                 for lo, hi in chunks]
        return np.sum(pool.run_batch(tasks), axis=0)

    try:
        benchmark(run)
    finally:
        pool.close()


@pytest.mark.parametrize("label", SIZES, ids=list(SIZES))
def test_extension_vectorised(benchmark, label):
    src, dst, values, triples = _setup(*SIZES[label])
    ratio = np.random.default_rng(1).random(dst.size)
    work = values.copy()
    benchmark(absorb_chunk, work, 0, src.size, ((triples, None, ratio),))


@pytest.mark.parametrize("label", SIZES, ids=list(SIZES))
def test_extension_cached_map(benchmark, label):
    src, dst, values, triples = _setup(*SIZES[label])
    ratio = np.random.default_rng(1).random(dst.size)
    imap = triples_to_map(src.size, triples)
    work = values.copy()
    benchmark(absorb_chunk, work, 0, src.size, ((triples, imap, ratio),))
