"""Fig D: potential-table operation microbenchmarks.

Compares, per operation and table size, the three implementations the
repo carries: the pure-Python per-entry loop (UnBBayes style), the
vectorised index-mapping kernel (the paper's formulation) and the
chunked-parallel kernel on top of the thread backend.
"""

from __future__ import annotations

import numpy as np

from repro.bench.report import fmt_seconds, format_table
from repro.bn.variable import Variable
from repro.exec.kernels import absorb_chunk, marg_chunk
from repro.parallel.backend import ThreadBackend
from repro.parallel.chunking import chunk_ranges
from repro.potential.domain import Domain
from repro.potential.index_map import map_indices_loop
from repro.utils.timing import benchmark_callable


def make_domain(num_vars: int, card: int) -> tuple[Domain, Domain]:
    """A clique domain of ``num_vars`` variables and its separator (half)."""
    variables = tuple(Variable.with_arity(f"v{i}", card) for i in range(num_vars))
    return Domain(variables), Domain(variables[: max(1, num_vars // 2)])


def bench_marginalize(num_vars: int, card: int, num_workers: int = 8,
                      repeats: int = 3) -> dict[str, float]:
    """Time the three marginalization implementations on one table shape."""
    src, dst = make_domain(num_vars, card)
    rng = np.random.default_rng(0)
    values = rng.random(src.size)
    triples = tuple((src.stride(v), src.card(v), dst.stride(v)) for v in dst.variables)

    def loop_impl() -> None:
        imap = map_indices_loop(src, dst)
        out = [0.0] * dst.size
        for i, m in enumerate(imap):
            out[m] += values[i]

    def vector_impl() -> None:
        marg_chunk(values, 0, src.size, triples, dst.size)

    pool = ThreadBackend(num_workers)
    chunks = chunk_ranges(src.size, num_workers * 4, min_chunk=1024)

    def parallel_impl() -> None:
        tasks = [(marg_chunk, (values, lo, hi, triples, dst.size)) for lo, hi in chunks]
        np.sum(pool.run_batch(tasks), axis=0)

    try:
        out = {
            "size": float(src.size),
            "python-loop": benchmark_callable(loop_impl, repeats=1).mean,
            "vectorised": benchmark_callable(vector_impl, repeats=repeats).mean,
            f"chunked(t={num_workers})": benchmark_callable(parallel_impl, repeats=repeats).mean,
        }
    finally:
        pool.close()
    return out


def bench_extension(num_vars: int, card: int, num_workers: int = 8,
                    repeats: int = 3) -> dict[str, float]:
    """Time extension(+multiply) implementations on one table shape."""
    dst, src = make_domain(num_vars, card)  # extend separator src into clique dst
    rng = np.random.default_rng(0)
    clique = rng.random(dst.size)
    sep = rng.random(src.size)
    triples = tuple((dst.stride(v), dst.card(v), src.stride(v)) for v in src.variables)
    updates = ((triples, None, sep),)

    def loop_impl() -> None:
        imap = map_indices_loop(dst, src)
        for i, m in enumerate(imap):
            clique[i] *= sep[m]

    def vector_impl() -> None:
        absorb_chunk(clique, 0, dst.size, updates)

    pool = ThreadBackend(num_workers)
    chunks = chunk_ranges(dst.size, num_workers * 4, min_chunk=1024)

    def parallel_impl() -> None:
        pool.run_batch([(absorb_chunk, (clique, lo, hi, updates)) for lo, hi in chunks])

    try:
        out = {
            "size": float(dst.size),
            "python-loop": benchmark_callable(loop_impl, repeats=1).mean,
            "vectorised": benchmark_callable(vector_impl, repeats=repeats).mean,
            f"chunked(t={num_workers})": benchmark_callable(parallel_impl, repeats=repeats).mean,
        }
    finally:
        pool.close()
    return out


def run_microbench(num_workers: int = 8) -> str:
    """Full Fig-D sweep over table sizes, rendered as a table."""
    shapes = [(4, 4), (6, 4), (8, 4), (10, 4)]  # 256 .. ~1M entries
    sections = []
    for title, fn in (("marginalization", bench_marginalize),
                      ("extension", bench_extension)):
        rows = []
        for num_vars, card in shapes:
            r = fn(num_vars, card, num_workers=num_workers)
            keys = [k for k in r if k != "size"]
            rows.append([f"{int(r['size'])}"] + [fmt_seconds(r[k]) for k in keys])
        sections.append(format_table(
            ["table entries"] + keys, rows,
            title=f"Fig D: {title} implementations"))
    return "\n\n".join(sections)
