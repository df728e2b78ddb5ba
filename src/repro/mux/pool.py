"""Shared ring-buffer pool: one slab arena for the whole fleet.

The single-stream runner gives every receiver its own
:class:`~repro.stream.ring.RingBuffer` of owned chunk arrays.  At fleet
scale (1k-10k streams) that allocation pattern is hostile: thousands of
small ndarrays churn the allocator, and no global statement can be made
about how much IQ the process is actually buffering.  The pool replaces
it with **one** preallocated arena of fixed-size slabs; each stream
holds a bounded FIFO *view* (:class:`StreamQueue`) of slab ids, so

* total buffered IQ is capped by construction (``n_slabs * slab_size``),
* enqueue/dequeue never allocates (a push copies into a recycled slab),
* drop accounting stays exact per stream - every chunk a producer
  offers is classified as buffered, delivered, or dropped, never lost.

Overflow semantics mirror the single-stream ring: ``drop-oldest``
evicts the stream's own oldest queued chunk (the live-SDR behaviour),
``block`` raises :class:`~repro.stream.ring.BufferFull` (reaching it
means the scheduler failed to drain first).  Two fleet-only cases are
defined on top:

* **zero-capacity streams** are legal - every offered chunk is
  immediately dropped and accounted, which models a receiver that is
  registered but not granted any buffer budget;
* **pool exhaustion** (free slabs run out while a stream still has
  queue headroom) falls back to the same policy: under ``drop-oldest``
  the stream evicts its own oldest chunk to recycle a slab, and a
  stream with nothing to evict drops the incoming chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..stream.ring import POLICIES, BufferFull
from ..stream.source import Chunk


@dataclass
class PooledChunk:
    """One queued chunk: source metadata plus its slab-backed samples.

    ``samples`` is a view into the arena; it is valid until the chunk's
    slab is released back to the pool (:meth:`ChunkPool.release`), which
    sets it to ``None`` - the slab may be recycled for another stream's
    push, so a read after release fails instead of aliasing it.
    """

    stream_id: str
    index: int
    start_sample: int
    arrival_s: float
    size: int
    slab: int
    samples: Optional[np.ndarray]

    @property
    def end_sample(self) -> int:
        return self.start_sample + self.size


class StreamQueue:
    """One stream's bounded FIFO view over the shared arena.

    Created by :meth:`ChunkPool.register`; never constructed directly.
    Counters follow the single-stream ring's contract (``pushed`` /
    ``popped`` / ``dropped_chunks`` / ``dropped_samples`` /
    ``high_watermark``) so per-stream conservation can be checked:
    every pushed chunk is either still queued, popped, or dropped.
    """

    def __init__(self, pool: "ChunkPool", stream_id: str, capacity: int,
                 policy: str):
        if capacity < 0:
            raise ValueError("capacity cannot be negative")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown overflow policy {policy!r}; choose from {POLICIES}"
            )
        self._pool = pool
        self.stream_id = stream_id
        self.capacity = int(capacity)
        self.policy = policy
        self._items: List[PooledChunk] = []
        self.pushed = 0
        self.popped = 0
        self.dropped_chunks = 0
        self.dropped_samples = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def occupancy(self) -> float:
        """Fill fraction in ``[0, 1]`` (a zero-capacity queue is full)."""
        if self.capacity == 0:
            return 1.0
        return len(self._items) / self.capacity

    @property
    def buffered_samples(self) -> int:
        return sum(item.size for item in self._items)

    def push(self, chunk: Chunk) -> List[PooledChunk]:
        """Offer one chunk; returns the chunks dropped to admit it.

        The incoming chunk itself appears in the returned list when it
        could not be admitted (zero capacity, or pool exhaustion with
        nothing of our own to evict) - so the caller's accounting never
        needs to distinguish "evicted" from "rejected".  Dropped chunks'
        slabs are already released.
        """
        self.pushed += 1
        dropped: List[PooledChunk] = []
        if self.capacity == 0:
            if self.policy == "block":
                raise BufferFull(
                    f"stream {self.stream_id!r} has zero capacity under "
                    "block policy; it can never accept a chunk"
                )
            self._account_drop(dropped, self._reject(chunk))
            return dropped
        while self.full:
            if self.policy == "block":
                raise BufferFull(
                    f"stream {self.stream_id!r} queue full "
                    f"({self.capacity} chunks) under block policy; "
                    "drain before pushing"
                )
            self._account_drop(dropped, self._evict_oldest())
        slab = self._pool._acquire()
        if slab is None:
            if self.policy == "block":
                raise BufferFull(
                    "chunk pool exhausted under block policy; drain "
                    "before pushing"
                )
            if self._items:
                # Recycle our own oldest slab (drop-oldest semantics
                # under pool pressure), then retry the acquire - it
                # must succeed now.
                self._account_drop(dropped, self._evict_oldest())
                slab = self._pool._acquire()
            if slab is None:
                self._account_drop(dropped, self._reject(chunk))
                return dropped
        samples = self._pool._write(slab, chunk.samples)
        self._items.append(
            PooledChunk(
                stream_id=self.stream_id,
                index=chunk.index,
                start_sample=chunk.start_sample,
                arrival_s=chunk.arrival_s,
                size=chunk.size,
                slab=slab,
                samples=samples,
            )
        )
        if len(self._items) > self.high_watermark:
            self.high_watermark = len(self._items)
        return dropped

    def pop(self) -> Optional[PooledChunk]:
        """Dequeue the oldest chunk, or None when empty.

        The caller owns the chunk's slab until it calls
        :meth:`ChunkPool.release` (after copying or consuming the
        samples view).
        """
        if not self._items:
            return None
        self.popped += 1
        return self._items.pop(0)

    def peek(self) -> Optional[PooledChunk]:
        return self._items[0] if self._items else None

    # -- internal -----------------------------------------------------------

    def _evict_oldest(self) -> PooledChunk:
        victim = self._items.pop(0)
        self._pool.release(victim)
        return victim

    def _reject(self, chunk: Chunk) -> PooledChunk:
        """Wrap an unadmitted source chunk as an already-dropped entry."""
        return PooledChunk(
            stream_id=self.stream_id,
            index=chunk.index,
            start_sample=chunk.start_sample,
            arrival_s=chunk.arrival_s,
            size=chunk.size,
            slab=-1,
            samples=chunk.samples,
        )

    def _account_drop(self, out: List[PooledChunk], victim: PooledChunk) -> None:
        self.dropped_chunks += 1
        self.dropped_samples += victim.size
        out.append(victim)


class ChunkPool:
    """The arena: ``n_slabs`` preallocated chunk slots shared fleet-wide.

    Parameters
    ----------
    n_slabs:
        Total chunk slots across every stream.  The natural sizing is
        the sum of per-stream capacities (no stream can then starve
        another); undersizing is legal and engages the pool-exhaustion
        policy documented on :class:`StreamQueue`.
    slab_size:
        Samples per slot; every pushed chunk must fit
        (``chunk.size <= slab_size``).
    dtype:
        Arena element type (complex64, matching SDR IQ).
    """

    def __init__(self, n_slabs: int, slab_size: int, dtype=np.complex64):
        if n_slabs < 1:
            raise ValueError("n_slabs must be >= 1")
        if slab_size < 1:
            raise ValueError("slab_size must be >= 1")
        self.n_slabs = int(n_slabs)
        self.slab_size = int(slab_size)
        self._arena = np.empty((self.n_slabs, self.slab_size), dtype=dtype)
        self._free = list(range(self.n_slabs - 1, -1, -1))  # LIFO recycle
        self._queues: Dict[str, StreamQueue] = {}
        self.high_watermark = 0

    @property
    def in_use(self) -> int:
        return self.n_slabs - len(self._free)

    @property
    def nbytes(self) -> int:
        return int(self._arena.nbytes)

    def register(
        self, stream_id: str, capacity: int, policy: str = "drop-oldest"
    ) -> StreamQueue:
        """Create the stream's queue view (ids are unique per pool)."""
        if stream_id in self._queues:
            raise ValueError(f"stream {stream_id!r} already registered")
        queue = StreamQueue(self, stream_id, capacity, policy)
        self._queues[stream_id] = queue
        return queue

    def queue(self, stream_id: str) -> StreamQueue:
        return self._queues[stream_id]

    def release(self, chunk: PooledChunk) -> None:
        """Return a popped/evicted chunk's slab to the free list.

        Drops the chunk's arena view; a rejected chunk never held a slab
        and keeps its source samples.
        """
        if chunk.slab < 0:
            return  # rejected chunk: never held a slab
        self._free.append(chunk.slab)
        chunk.slab = -1
        chunk.samples = None

    # -- slab plumbing (StreamQueue only) ------------------------------------

    def _acquire(self) -> Optional[int]:
        if not self._free:
            return None
        slab = self._free.pop()
        if self.in_use > self.high_watermark:
            self.high_watermark = self.in_use
        return slab

    def _write(self, slab: int, samples: np.ndarray) -> np.ndarray:
        n = samples.size
        if n > self.slab_size:
            self._free.append(slab)
            raise ValueError(
                f"chunk of {n} samples exceeds the pool slab size "
                f"{self.slab_size}"
            )
        view = self._arena[slab, :n]
        view[:] = samples
        return view
