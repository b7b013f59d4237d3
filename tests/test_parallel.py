"""Tests for the parallel runtime: chunking, backends, named segments."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import BackendError
from repro.parallel.backend import (
    BACKENDS,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.parallel.chunking import chunk_ranges, chunk_weighted
from repro.parallel.sharedmem import (
    SEGMENTS,
    cleanup_segments,
    list_segments,
    share_readonly,
)


class TestChunkRanges:
    def test_covers_exactly(self):
        chunks = chunk_ranges(100, 7)
        assert chunks[0][0] == 0 and chunks[-1][1] == 100
        for (a, b), (c, d) in zip(chunks, chunks[1:]):
            assert b == c

    def test_near_equal_sizes(self):
        sizes = [hi - lo for lo, hi in chunk_ranges(100, 7)]
        assert max(sizes) - min(sizes) <= 1

    def test_min_chunk_respected(self):
        chunks = chunk_ranges(100, 50, min_chunk=30)
        assert len(chunks) == 3
        assert all(hi - lo >= 30 for lo, hi in chunks[:-1])

    def test_small_table_single_chunk(self):
        assert chunk_ranges(5, 8, min_chunk=10) == [(0, 5)]

    def test_empty(self):
        assert chunk_ranges(0, 4) == []

    def test_invalid_params(self):
        with pytest.raises(BackendError):
            chunk_ranges(10, 0)
        with pytest.raises(BackendError):
            chunk_ranges(-1, 2)


class TestChunkWeighted:
    def test_covers_all_items(self):
        sizes = [10, 200, 3, 50]
        groups = chunk_weighted(sizes, 4)
        covered = {i: 0 for i in range(len(sizes))}
        for group in groups:
            for item, lo, hi in group:
                covered[item] += hi - lo
        assert covered == {i: s for i, s in enumerate(sizes)}

    def test_groups_balanced(self):
        sizes = [1000, 10, 10, 10, 1000]
        groups = chunk_weighted(sizes, 4)
        loads = [sum(hi - lo for _, lo, hi in g) for g in groups]
        assert max(loads) <= 2 * (sum(sizes) // 4 + 1)

    def test_large_item_split_across_groups(self):
        groups = chunk_weighted([100], 4)
        assert len(groups) == 4

    def test_small_items_packed_together(self):
        groups = chunk_weighted([1] * 20, 2)
        assert len(groups) == 2

    def test_empty_total(self):
        assert chunk_weighted([0, 0], 4) == []

    def test_invalid(self):
        with pytest.raises(BackendError):
            chunk_weighted([1], 0)


def _add(a, b):
    return a + b


def _write_range(arr, lo, hi, value):
    arr[lo:hi] = value


class TestBackends:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_results_in_order(self, kind):
        with make_backend(kind, 4) as be:
            results = be.run_batch([(_add, (i, i)) for i in range(20)])
        assert results == [2 * i for i in range(20)]

    def test_serial_is_inline(self):
        be = SerialBackend()
        assert be.run_batch([(_add, (1, 2))]) == [3]
        assert be.num_workers == 1

    def test_thread_shares_memory(self):
        arr = np.zeros(100)
        with ThreadBackend(4) as be:
            be.run_batch([(_write_range, (arr, i * 25, (i + 1) * 25, float(i)))
                          for i in range(4)])
        assert np.all(arr[75:] == 3.0)

    def test_make_backend_default_workers(self):
        be = make_backend("thread")
        assert 1 <= be.num_workers <= 32
        be.close()

    def test_unknown_backend(self):
        with pytest.raises(BackendError):
            make_backend("gpu")

    def test_process_backend_is_gone(self):
        """Threads over the plan arena are the one parallel substrate; the
        rejection names what is accepted."""
        assert BACKENDS == ("serial", "thread")
        with pytest.raises(BackendError, match=r"serial.*thread"):
            make_backend("process", 2)

    def test_invalid_worker_count(self):
        with pytest.raises(BackendError):
            ThreadBackend(0)

    def test_exception_propagates(self):
        def boom():
            raise ValueError("task failed")

        with ThreadBackend(2) as be:
            with pytest.raises(ValueError, match="task failed"):
                be.run_batch([(boom, ()), (boom, ())])


# -------------------------------------------------------- named segments
# Spawn-context helpers must be module-level (the child imports this
# module by name and looks the function up).

def _publish_and_die(name: str) -> None:
    """Publish a named segment, then die without any cleanup."""
    share_readonly(name, lambda: np.arange(16.0))
    os._exit(0)


def _attach_readonly_sum(name: str) -> float:
    values, owner = share_readonly(name, lambda: np.arange(16.0))
    total = float(values.sum())
    SEGMENTS.release(name)
    assert not owner, "child attached to an existing segment"
    return total


class TestNamedSegments:
    PREFIX = f"fbni_t_{os.getpid()}_"

    def test_publish_then_attach_shares_one_segment(self):
        name = self.PREFIX + "pub"
        try:
            first, owner_a = share_readonly(name, lambda: np.arange(8.0))
            second, owner_b = share_readonly(
                name, lambda: np.arange(8.0))
            assert owner_a and not owner_b
            assert not first.flags.writeable
            np.testing.assert_array_equal(first, second)
            assert list_segments(name) == [name]
        finally:
            SEGMENTS.release(name)
            SEGMENTS.release(name)
        assert list_segments(name) == []

    def test_release_is_refcounted_and_idempotent(self):
        name = self.PREFIX + "rc"
        shm_a, created = SEGMENTS.acquire(name, 64)
        shm_b, again = SEGMENTS.acquire(name, 64)
        assert created and not again
        assert shm_a is shm_b
        SEGMENTS.release(name)
        assert name in SEGMENTS.attached()  # one reference left
        SEGMENTS.release(name)
        assert name not in SEGMENTS.attached()
        assert list_segments(name) == []  # owner unlinked at zero
        SEGMENTS.release(name)  # releasing an unknown name is a no-op

    def test_spawn_worker_attaches_to_published_segment(self):
        name = self.PREFIX + "xp"
        ctx = multiprocessing.get_context("spawn")
        try:
            values, owner = share_readonly(name, lambda: np.arange(16.0))
            assert owner
            with ctx.Pool(1) as pool:
                total = pool.apply(_attach_readonly_sum, (name,))
            assert total == float(values.sum())
        finally:
            SEGMENTS.release(name)
        assert list_segments(name) == []

    def test_process_death_leaves_no_segments(self):
        # A worker that dies without releasing must not leak /dev/shm:
        # its resource tracker reclaims registered segments, and the
        # supervisor's prefix sweep catches anything the tracker missed.
        import time

        name = self.PREFIX + "die"
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_publish_and_die, args=(name,))
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 0
        deadline = time.monotonic() + 10
        while list_segments(name) and time.monotonic() < deadline:
            time.sleep(0.05)
        cleanup_segments(name)  # the supervisor's sweep, should any remain
        assert list_segments(name) == []

    def test_cleanup_segments_sweeps_foreign_orphans(self):
        # Simulate a segment left by a crashed process this test never
        # tracked: create, unregister from our tracker, drop the handle.
        from multiprocessing import shared_memory

        from repro.parallel.sharedmem import _unregister_from_tracker

        name = self.PREFIX + "orphan"
        shm = shared_memory.SharedMemory(name=name, create=True, size=64)
        _unregister_from_tracker(shm)
        shm.close()
        assert list_segments(name) == [name]
        assert cleanup_segments(name) == [name]
        assert list_segments(name) == []
        assert cleanup_segments(name) == []  # sweep is idempotent

    def test_acquire_rejects_bad_size(self):
        with pytest.raises(BackendError):
            SEGMENTS.acquire(self.PREFIX + "bad", 0)
