"""Shared chunk pool: slab accounting, overflow policies, edge cases."""

import numpy as np
import pytest

from repro.mux.pool import ChunkPool
from repro.stream.ring import BufferFull
from repro.stream.source import Chunk


def _chunk(index, size=16, start=None, seed=None):
    rng = np.random.default_rng(index if seed is None else seed)
    samples = (
        rng.normal(size=size) + 1j * rng.normal(size=size)
    ).astype(np.complex64)
    return Chunk(
        samples=samples,
        start_sample=index * size if start is None else start,
        index=index,
        arrival_s=index * 0.01,
    )


class TestPoolBasics:
    def test_rejects_bad_sizing(self):
        with pytest.raises(ValueError):
            ChunkPool(0, 16)
        with pytest.raises(ValueError):
            ChunkPool(4, 0)

    def test_arena_is_one_allocation(self):
        pool = ChunkPool(8, 32)
        assert pool.nbytes == 8 * 32 * np.dtype(np.complex64).itemsize
        assert pool.in_use == 0

    def test_push_pop_roundtrip_via_slab(self):
        pool = ChunkPool(4, 16)
        queue = pool.register("a", capacity=4)
        chunk = _chunk(0)
        assert queue.push(chunk) == []
        assert pool.in_use == 1
        pooled = queue.pop()
        np.testing.assert_array_equal(pooled.samples, chunk.samples)
        # the view is arena-backed, not the source array
        assert pooled.samples.base is not None
        assert pooled.samples.base is not chunk.samples
        pool.release(pooled)
        assert pool.in_use == 0
        # The view is dropped: a read after release cannot alias the
        # recycled slab.
        assert pooled.samples is None

    def test_release_is_idempotent(self):
        pool = ChunkPool(2, 16)
        queue = pool.register("a", capacity=2)
        queue.push(_chunk(0))
        pooled = queue.pop()
        pool.release(pooled)
        pool.release(pooled)  # slab already returned: no double-free
        assert pool.in_use == 0
        assert len(pool._free) == 2

    def test_duplicate_stream_id_rejected(self):
        pool = ChunkPool(2, 16)
        pool.register("a", capacity=1)
        with pytest.raises(ValueError):
            pool.register("a", capacity=1)

    def test_oversized_chunk_rejected_and_slab_recovered(self):
        pool = ChunkPool(2, 16)
        queue = pool.register("a", capacity=2)
        with pytest.raises(ValueError):
            queue.push(_chunk(0, size=17))
        assert pool.in_use == 0  # the acquired slab went back

    def test_chunk_exactly_slab_sized(self):
        # slab boundary: a chunk that fills its slab to the last sample
        pool = ChunkPool(2, 16)
        queue = pool.register("a", capacity=2)
        chunk = _chunk(0, size=16)
        assert queue.push(chunk) == []
        pooled = queue.pop()
        assert pooled.size == 16
        np.testing.assert_array_equal(pooled.samples, chunk.samples)

    def test_slab_recycling_never_aliases(self):
        # LIFO recycle: pop + release, then a different stream's push
        # must land in the recycled slab without corrupting new data
        pool = ChunkPool(1, 16)
        qa = pool.register("a", capacity=1)
        qb = pool.register("b", capacity=1)
        first = _chunk(0, seed=1)
        qa.push(first)
        pooled = qa.pop()
        kept = np.array(pooled.samples)  # copy out, then release
        pool.release(pooled)
        second = _chunk(1, seed=2)
        qb.push(second)
        got = qb.pop()
        np.testing.assert_array_equal(got.samples, second.samples)
        np.testing.assert_array_equal(kept, first.samples)


class TestDropOldest:
    def test_eviction_at_capacity(self):
        pool = ChunkPool(4, 16)
        queue = pool.register("a", capacity=2)
        c0, c1, c2 = _chunk(0), _chunk(1), _chunk(2)
        assert queue.push(c0) == []
        assert queue.push(c1) == []
        dropped = queue.push(c2)
        assert [d.index for d in dropped] == [0]  # own oldest evicted
        assert queue.dropped_chunks == 1
        assert queue.dropped_samples == c0.size
        assert [queue.pop().index for _ in range(2)] == [1, 2]

    def test_evicted_slab_is_released(self):
        pool = ChunkPool(2, 16)
        queue = pool.register("a", capacity=1)
        queue.push(_chunk(0))
        (victim,) = queue.push(_chunk(1))
        assert victim.slab == -1  # released on eviction
        assert victim.samples is None
        assert pool.in_use == 1  # only the admitted chunk holds a slab

    def test_pool_exhaustion_evicts_own_oldest(self):
        # 2 slabs, two streams with headroom: stream a hoards both
        # slabs, then a third push to a recycles a's own oldest
        pool = ChunkPool(2, 16)
        qa = pool.register("a", capacity=8)
        pool.register("b", capacity=8)
        qa.push(_chunk(0))
        qa.push(_chunk(1))
        dropped = qa.push(_chunk(2))
        assert [d.index for d in dropped] == [0]
        assert [c.index for c in qa._items] == [1, 2]

    def test_pool_exhaustion_with_empty_queue_rejects_incoming(self):
        pool = ChunkPool(1, 16)
        qa = pool.register("a", capacity=8)
        qb = pool.register("b", capacity=8)
        qa.push(_chunk(0))  # hoards the only slab
        incoming = _chunk(5)
        dropped = qb.push(incoming)
        assert [d.index for d in dropped] == [5]  # the rejected chunk
        assert dropped[0].slab == -1
        assert len(qb) == 0
        assert qb.dropped_chunks == 1
        pool.release(dropped[0])  # releasing a rejected chunk: no-op
        assert pool.in_use == 1
        assert dropped[0].samples is incoming.samples


class TestZeroCapacity:
    def test_every_chunk_dropped_and_accounted(self):
        pool = ChunkPool(2, 16)
        queue = pool.register("a", capacity=0)
        total = 0
        for i in range(5):
            chunk = _chunk(i)
            (dropped,) = queue.push(chunk)
            assert dropped.index == i and dropped.slab == -1
            total += chunk.size
        assert queue.pushed == 5
        assert queue.dropped_chunks == 5
        assert queue.dropped_samples == total
        assert len(queue) == 0
        assert pool.in_use == 0
        assert queue.occupancy == 1.0  # always full by definition

    def test_block_policy_raises(self):
        pool = ChunkPool(2, 16)
        queue = pool.register("a", capacity=0, policy="block")
        with pytest.raises(BufferFull):
            queue.push(_chunk(0))

    def test_negative_capacity_rejected(self):
        pool = ChunkPool(2, 16)
        with pytest.raises(ValueError):
            pool.register("a", capacity=-1)


class TestBlockPolicy:
    def test_full_queue_raises(self):
        pool = ChunkPool(4, 16)
        queue = pool.register("a", capacity=1, policy="block")
        queue.push(_chunk(0))
        with pytest.raises(BufferFull):
            queue.push(_chunk(1))

    def test_pool_exhaustion_raises(self):
        pool = ChunkPool(1, 16)
        pool.register("hog", capacity=4).push(_chunk(0))
        queue = pool.register("a", capacity=4, policy="block")
        with pytest.raises(BufferFull):
            queue.push(_chunk(1))


class TestWatermarks:
    def test_queue_and_pool_high_watermarks(self):
        pool = ChunkPool(4, 16)
        queue = pool.register("a", capacity=4)
        for i in range(3):
            queue.push(_chunk(i))
        assert queue.high_watermark == 3
        assert pool.high_watermark == 3
        for _ in range(3):
            pool.release(queue.pop())
        assert pool.in_use == 0
        assert pool.high_watermark == 3  # watermark is sticky
        assert queue.buffered_samples == 0
