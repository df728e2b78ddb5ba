"""Fleet scheduler: deterministic ticks over 1k-10k pooled streams.

One :class:`StreamMultiplexer` drives the whole fleet from a single
thread.  Each **tick** advances a simulated wall clock by ``tick_s``
and runs three phases:

1. **ingest** - every source's chunks that have "arrived" by the tick
   clock are pushed into the stream's pooled queue
   (:class:`~repro.mux.pool.StreamQueue`); overflow follows the
   stream's policy and every eviction is accounted as a drop.
2. **service** - streams are visited in ``(priority, stream_id)``
   order, round-robin one chunk per stream per pass, each stream
   limited by its sample-rate budget (``service_rate_sps * tick_s``
   with debt-only carry: overdraft up to one chunk is allowed so a
   slow budget cannot deadlock a stream, and the overdraft is repaid
   before the next chunk).  An optional ``shed_hook`` may veto any
   popped chunk - it is then *shed* (accounted, never demodulated).
   Popped samples are copied out of the arena before the slab is
   released, so slab recycling can never alias a later push.  Missing
   stream intervals (dropped or shed chunks) are zero-filled so the
   receiver's time base never shifts; gap zeros are budget-free.
3. **demod** - serviced samples are grouped by STFT configuration and
   run through one batched kernel call per group
   (:func:`repro.mux.dsp.tick_group`), bit-identical to per-stream
   demodulation.

Everything is synchronous and seeded, so a tick sequence is exactly
reproducible; :meth:`StreamMultiplexer.run_async` wraps the same
``tick`` in an asyncio loop with a pause gate for interactive use
(:mod:`repro.mux.interactive`), yielding to the event loop between
ticks.

Conservation is a hard invariant, checked by
:meth:`StreamMultiplexer.check_conservation`: for every stream,

``produced == delivered + shed + dropped + buffered``   (in chunks
and in samples), where *produced* counts chunks offered by the
source, *dropped* counts pool/queue evictions, *shed* counts
scheduler-level rejections, and *buffered* is what still sits in the
queue.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from ..obs.metrics import (
    tap_mux_drop,
    tap_mux_shed,
    tap_mux_summary,
    tap_mux_tick,
)
from ..obs.trace import span, trace_event
from ..stream.source import Chunk, ChunkSource
from .dsp import MuxStream, group_streams, tick_group
from .pool import ChunkPool, PooledChunk, StreamQueue

#: ``shed_hook(stream_id, chunk) -> True`` to shed the chunk instead of
#: demodulating it.
ShedHook = Callable[[str, PooledChunk], bool]


@dataclass
class StreamCounters:
    """Per-stream chunk/sample ledger (the conservation operands)."""

    produced_chunks: int = 0
    produced_samples: int = 0
    delivered_chunks: int = 0
    delivered_samples: int = 0
    shed_chunks: int = 0
    shed_samples: int = 0
    dropped_chunks: int = 0
    dropped_samples: int = 0
    gap_samples: int = 0  # synthetic zeros, outside conservation

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class MuxStreamState:
    """Everything the scheduler tracks for one registered stream."""

    stream_id: str
    priority: int
    queue: StreamQueue
    mux: MuxStream
    chunks: Iterator[Chunk]
    service_rate_sps: Optional[float]
    next_chunk: Optional[Chunk] = None
    exhausted: bool = False
    carry: float = 0.0  # debt-only budget carry (<= 0)
    expected_next: int = 0  # next start_sample the receiver should see
    counters: StreamCounters = field(default_factory=StreamCounters)
    events: List = field(default_factory=list)

    @property
    def done(self) -> bool:
        """Source drained, queue empty, nothing pending in the adapter."""
        return (
            self.exhausted
            and self.next_chunk is None
            and len(self.queue) == 0
            and self.mux.pending_samples == 0
        )


class StreamMultiplexer:
    """Single-process multiplexer for a fleet of streaming receivers.

    Parameters
    ----------
    pool:
        The shared slab arena every stream queue draws from.
    tick_s:
        Simulated seconds per tick.  Ingest admits chunks whose
        ``arrival_s`` falls at or before the tick clock, so one tick
        typically services several chunks per stream - the batching
        lever that amortises per-stream Python overhead.
    shed_hook:
        Optional veto called on every popped chunk (see module doc).
    """

    def __init__(
        self,
        pool: ChunkPool,
        tick_s: float,
        shed_hook: Optional[ShedHook] = None,
    ):
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        self.pool = pool
        self.tick_s = float(tick_s)
        self.shed_hook = shed_hook
        self.now_s = 0.0
        self.ticks = 0
        self._streams: Dict[str, MuxStreamState] = {}
        self._order: List[MuxStreamState] = []  # (priority, id) sorted
        self._paused = False
        self._gate: Optional[asyncio.Event] = None
        self._tick_chunks = 0
        self._tick_samples = 0
        self._tick_touched: set = set()

    # -- registration -------------------------------------------------------

    def add_stream(
        self,
        stream_id: str,
        source: ChunkSource,
        receiver,
        *,
        capacity: int = 8,
        policy: str = "drop-oldest",
        priority: int = 0,
        service_rate_sps: Optional[float] = None,
    ) -> MuxStreamState:
        """Register one stream: source, pooled queue, receiver adapter.

        ``priority`` orders service (lower value is served first);
        ``service_rate_sps`` caps how many samples per simulated second
        the scheduler demodulates for this stream (None = unlimited).
        """
        if stream_id in self._streams:
            raise ValueError(f"stream {stream_id!r} already registered")
        # ``not > 0`` also catches NaN: a budget that never grows would
        # leave the queue undrained and the fleet ticking forever.
        if service_rate_sps is not None and not service_rate_sps > 0:
            raise ValueError("service_rate_sps must be positive (or None)")
        queue = self.pool.register(stream_id, capacity, policy)
        state = MuxStreamState(
            stream_id=stream_id,
            priority=int(priority),
            queue=queue,
            mux=MuxStream(stream_id, receiver),
            chunks=iter(source),
            service_rate_sps=service_rate_sps,
        )
        self._streams[stream_id] = state
        self._order.append(state)
        self._order.sort(key=lambda s: (s.priority, s.stream_id))
        return state

    @property
    def stream_ids(self) -> List[str]:
        return [s.stream_id for s in self._order]

    def state(self, stream_id: str) -> MuxStreamState:
        return self._streams[stream_id]

    @property
    def n_streams(self) -> int:
        return len(self._streams)

    @property
    def done(self) -> bool:
        return all(s.done for s in self._order)

    # -- tick engine --------------------------------------------------------

    def tick(self) -> int:
        """Advance the clock one tick; returns chunks demodulated."""
        self.now_s += self.tick_s
        self.ticks += 1
        self._tick_chunks = 0
        self._tick_samples = 0
        self._tick_touched = set()
        with span("mux.tick", attrs={"tick": self.ticks}):
            self._ingest()
            self._service()
            self._demod()
        tap_mux_tick(
            len(self._tick_touched), self._tick_chunks, self._tick_samples
        )
        return self._tick_chunks

    def run(self, max_ticks: Optional[int] = None) -> int:
        """Tick until every stream is done; returns ticks executed."""
        executed = 0
        with span("mux.run", attrs={"streams": self.n_streams}):
            while not self.done:
                if max_ticks is not None and executed >= max_ticks:
                    break
                self.tick()
                executed += 1
        self._summarise()
        return executed

    async def run_async(self, max_ticks: Optional[int] = None) -> int:
        """Asyncio variant of :meth:`run` honouring the pause gate.

        Yields to the event loop between ticks so interactive control
        (pause/step/inspect) interleaves with fleet progress; the tick
        itself stays synchronous, so pausing can never observe a
        half-serviced tick.
        """
        self._gate = asyncio.Event()
        if not self._paused:
            self._gate.set()
        executed = 0
        with span("mux.run", attrs={"streams": self.n_streams}):
            while not self.done:
                if max_ticks is not None and executed >= max_ticks:
                    break
                await self._gate.wait()
                self.tick()
                executed += 1
                await asyncio.sleep(0)
        self._summarise()
        return executed

    def pause(self) -> None:
        """Stop :meth:`run_async` at the next tick boundary."""
        self._paused = True
        if self._gate is not None:
            self._gate.clear()
        trace_event("mux.pause", tick=self.ticks)

    def resume(self) -> None:
        self._paused = False
        if self._gate is not None:
            self._gate.set()
        trace_event("mux.resume", tick=self.ticks)

    @property
    def paused(self) -> bool:
        return self._paused

    # -- phases -------------------------------------------------------------

    def _ingest(self) -> None:
        """Admit every chunk that has arrived by the tick clock."""
        for state in self._order:
            while True:
                if state.next_chunk is None:
                    state.next_chunk = next(state.chunks, None)
                    if state.next_chunk is None:
                        state.exhausted = True
                        break
                chunk = state.next_chunk
                if chunk.arrival_s > self.now_s:
                    break
                if state.queue.policy == "block" and (
                    state.queue.full
                    or self.pool.in_use >= self.pool.n_slabs
                ):
                    # Backpressure: a block-policy stream holds the
                    # arrived chunk at the source until the scheduler
                    # drains its queue, rather than raising mid-run.
                    break
                state.next_chunk = None
                state.counters.produced_chunks += 1
                state.counters.produced_samples += chunk.size
                if (
                    state.service_rate_sps is None
                    and state.queue.capacity > 0
                    and len(state.queue) == 0
                ):
                    # Zero-queue fast path: the stream has no service
                    # cap and nothing buffered, so this chunk would be
                    # popped unmodified later this same tick - dispatch
                    # it straight to the demod stage and skip the
                    # slab round-trip.  Accounting is identical
                    # (produced and delivered both count; buffered is
                    # zero either way), and the samples view aliases
                    # the immutable source capture, not the arena.
                    self._dispatch(state, chunk, pooled=False)
                    continue
                dropped = state.queue.push(chunk)
                if dropped:
                    n = len(dropped)
                    samples = sum(d.size for d in dropped)
                    state.counters.dropped_chunks += n
                    state.counters.dropped_samples += samples
                    tap_mux_drop(n, samples)

    def _service(self) -> None:
        """Drain queues under per-stream budgets, round-robin by priority."""
        queued = [s for s in self._order if len(s.queue)]
        if not queued:
            return
        budgets: Dict[str, float] = {}
        for state in queued:
            if state.service_rate_sps is None:
                budgets[state.stream_id] = float("inf")
            else:
                budgets[state.stream_id] = (
                    state.service_rate_sps * self.tick_s + state.carry
                )
        progress = True
        while progress:
            progress = False
            for state in queued:
                budget = budgets[state.stream_id]
                if budget <= 0 or len(state.queue) == 0:
                    continue
                chunk = state.queue.pop()
                budgets[state.stream_id] = budget - chunk.size
                progress = True
                self._dispatch(state, chunk, pooled=True)
        for state in queued:
            budget = budgets[state.stream_id]
            if budget == float("inf"):
                state.carry = 0.0
            else:
                # Debt-only carry: overdraft is repaid next tick, but
                # unused budget does not accumulate into a burst.
                state.carry = min(budget, 0.0)

    def _dispatch(self, state: MuxStreamState, chunk, pooled: bool) -> None:
        """Shed-check, gap-fill, and hand one chunk to the adapter.

        ``chunk`` is a :class:`~repro.mux.pool.PooledChunk` off the
        stream's queue (``pooled=True``) or a source
        :class:`~repro.stream.source.Chunk` on the fast path - both
        carry ``size`` / ``start_sample`` / ``end_sample`` / ``samples``.
        """
        if self.shed_hook is not None and self.shed_hook(
            state.stream_id, chunk
        ):
            state.counters.shed_chunks += 1
            state.counters.shed_samples += chunk.size
            tap_mux_shed(1, chunk.size)
            if pooled:
                self.pool.release(chunk)
            return
        if chunk.start_sample > state.expected_next:
            gap = chunk.start_sample - state.expected_next
            state.mux.buffer(np.zeros(gap, dtype=np.complex64))
            state.counters.gap_samples += gap
        if pooled:
            # Copy out of the arena before releasing: once the slab is
            # back on the free list a later push may overwrite it.
            state.mux.buffer(np.array(chunk.samples))
            self.pool.release(chunk)
        else:
            # Fast-path samples alias the immutable source capture.
            state.mux.buffer(chunk.samples)
        state.counters.delivered_chunks += 1
        state.counters.delivered_samples += chunk.size
        state.expected_next = max(state.expected_next, chunk.end_sample)
        self._tick_chunks += 1
        self._tick_samples += chunk.size
        self._tick_touched.add(state.stream_id)

    def _demod(self) -> None:
        """One batched kernel call per STFT-config group."""
        for members in group_streams(
            [s.mux for s in self._order if s.mux.pending_samples]
        ).values():
            for ms, events in tick_group(members, self.now_s):
                if events:
                    self._streams[ms.stream_id].events.extend(events)

    # -- accounting ---------------------------------------------------------

    def check_conservation(self) -> None:
        """Assert the chunk/sample ledger balances for every stream."""
        for state in self._order:
            c = state.counters
            buffered_chunks = len(state.queue)
            buffered_samples = state.queue.buffered_samples
            ok_chunks = c.produced_chunks == (
                c.delivered_chunks
                + c.shed_chunks
                + c.dropped_chunks
                + buffered_chunks
            )
            ok_samples = c.produced_samples == (
                c.delivered_samples
                + c.shed_samples
                + c.dropped_samples
                + buffered_samples
            )
            if not (ok_chunks and ok_samples):
                raise AssertionError(
                    f"conservation violated for {state.stream_id!r}: "
                    f"{c.as_dict()}, buffered={buffered_chunks} chunks / "
                    f"{buffered_samples} samples"
                )

    def totals(self) -> Dict[str, int]:
        """Fleet-wide ledger sums plus event count."""
        keys = StreamCounters().as_dict().keys()
        out = {key: 0 for key in keys}
        events = 0
        for state in self._order:
            for key, value in state.counters.as_dict().items():
                out[key] += value
            events += len(state.events)
        out["events"] = events
        return out

    def shed_fraction(self) -> float:
        """(shed + dropped) / produced, in chunks, fleet-wide."""
        totals = self.totals()
        produced = totals["produced_chunks"]
        if produced == 0:
            return 0.0
        return (totals["shed_chunks"] + totals["dropped_chunks"]) / produced

    def _summarise(self) -> None:
        totals = self.totals()
        tap_mux_summary(
            self.n_streams,
            totals["events"],
            self.shed_fraction(),
            self.pool.high_watermark,
        )
