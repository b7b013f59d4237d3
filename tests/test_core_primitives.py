"""Tests for the entry-range chunk kernels (repro.exec.kernels)."""

import numpy as np
import pytest

from repro.bn.variable import Variable
from repro.exec.kernels import (
    absorb_chunk,
    chunk_dst_indices,
    marg_chunk,
    ratio_vector,
    triples_to_map,
)
from repro.potential.domain import Domain
from repro.potential.factor import Potential
from repro.potential.index_map import map_indices
from repro.potential.ops import extend, marginalize


@pytest.fixture
def domains():
    variables = tuple(Variable.with_arity(f"v{i}", c) for i, c in enumerate([3, 2, 4, 2]))
    src = Domain(variables)
    dst = Domain((variables[1], variables[3]))
    return src, dst


def triples_of(src, dst):
    return tuple((src.stride(v), src.card(v), dst.stride(v)) for v in dst.variables)


class TestChunkIndices:
    def test_matches_map_indices(self, domains):
        src, dst = domains
        got = chunk_dst_indices(0, src.size, triples_of(src, dst))
        assert np.array_equal(got, map_indices(src, dst))

    def test_range_slice(self, domains):
        src, dst = domains
        full = map_indices(src, dst)
        got = chunk_dst_indices(7, 29, triples_of(src, dst))
        assert np.array_equal(got, full[7:29])

    def test_precomputed_map_used(self, domains):
        src, dst = domains
        imap = triples_to_map(src.size, triples_of(src, dst))
        got = chunk_dst_indices(5, 20, (), imap)  # triples ignored when map given
        assert np.array_equal(got, imap[5:20])


class TestMargChunk:
    def test_full_range_equals_marginalize(self, domains):
        src, dst = domains
        vals = np.random.default_rng(0).random(src.size)
        pot = Potential(src, vals)
        expected = marginalize(pot, dst.names).values
        got = marg_chunk(vals, 0, src.size, triples_of(src, dst), dst.size)
        assert np.allclose(got, expected)

    def test_partials_sum_to_whole(self, domains):
        src, dst = domains
        vals = np.random.default_rng(1).random(src.size)
        tr = triples_of(src, dst)
        whole = marg_chunk(vals, 0, src.size, tr, dst.size)
        parts = [marg_chunk(vals, lo, min(lo + 7, src.size), tr, dst.size)
                 for lo in range(0, src.size, 7)]
        assert np.allclose(np.sum(parts, axis=0), whole)

    def test_cached_map_same_result(self, domains):
        src, dst = domains
        vals = np.random.default_rng(2).random(src.size)
        tr = triples_of(src, dst)
        imap = triples_to_map(src.size, tr)
        assert np.allclose(
            marg_chunk(vals, 3, 40, tr, dst.size),
            marg_chunk(vals, 3, 40, tr, dst.size, imap),
        )


class TestAbsorbChunk:
    def test_matches_extend_multiply(self, domains):
        src, dst = domains
        rng = np.random.default_rng(3)
        clique = rng.random(src.size)
        ratio = rng.random(dst.size)
        expected = clique * extend(Potential(dst, ratio), src).values
        work = clique.copy()
        tr = triples_of(src, dst)
        absorb_chunk(work, 0, src.size, ((tr, None, ratio),))
        assert np.allclose(work, expected)

    def test_disjoint_ranges_compose(self, domains):
        src, dst = domains
        rng = np.random.default_rng(4)
        clique = rng.random(src.size)
        ratio = rng.random(dst.size)
        tr = triples_of(src, dst)
        whole = clique.copy()
        absorb_chunk(whole, 0, src.size, ((tr, None, ratio),))
        chunked = clique.copy()
        for lo in range(0, src.size, 11):
            absorb_chunk(chunked, lo, min(lo + 11, src.size), ((tr, None, ratio),))
        assert np.allclose(chunked, whole)

    def test_multiple_updates_applied(self, domains):
        src, dst = domains
        rng = np.random.default_rng(5)
        clique = rng.random(src.size)
        r1, r2 = rng.random(dst.size), rng.random(dst.size)
        tr = triples_of(src, dst)
        expected = (clique
                    * extend(Potential(dst, r1), src).values
                    * extend(Potential(dst, r2), src).values)
        work = clique.copy()
        absorb_chunk(work, 0, src.size,
                     ((tr, None, r1), (tr, None, r2)))
        assert np.allclose(work, expected)


class TestSmallKernels:
    def test_ratio_vector_zero_convention(self):
        new = np.array([1.0, 0.0, 2.0])
        old = np.array([2.0, 0.0, 0.0])
        r = ratio_vector(new, old)
        assert np.array_equal(r, [0.5, 0.0, 0.0])
