"""Chunked IQ sources: where a streaming receiver's samples come from.

A real attacker's SDR delivers IQ in fixed-size transfer buffers whose
arrival times wobble with USB scheduling; the batch pipeline instead
hands the receiver one monolithic :class:`~repro.types.IQCapture`.  This
module bridges the two: a :class:`ChunkSource` is any iterable of
:class:`Chunk` objects carrying samples, their global position in the
stream, and a *simulated* arrival clock, plus the stream metadata
(:class:`StreamMeta`) the receiver needs before the first sample lands.

:class:`CaptureChunkSource` replays an existing capture - recorded, or
produced by the simulated analog chain - in configurable chunk sizes
with seeded arrival jitter, so every streaming run is deterministic and
directly comparable against the batch decode of the same capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..types import IQCapture


@dataclass(frozen=True)
class StreamMeta:
    """What the receiver must know before the first chunk arrives."""

    sample_rate: float
    center_frequency: float

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")

    def as_capture_stub(self) -> IQCapture:
        """An empty capture carrying this metadata.

        Lets streaming code reuse batch helpers that only read a
        capture's rates (bin selection, baseband offsets) without ever
        materialising the sample array.
        """
        return IQCapture(
            samples=np.empty(0, dtype=np.complex64),
            sample_rate=self.sample_rate,
            center_frequency=self.center_frequency,
        )


@dataclass(frozen=True)
class Chunk:
    """One delivery of IQ samples.

    Attributes
    ----------
    samples:
        Complex IQ samples of this chunk.
    start_sample:
        Global index of ``samples[0]`` in the stream.
    index:
        Sequence number of the chunk (0-based, gap-free at the source;
        the ring buffer may drop chunks downstream).
    arrival_s:
        Simulated arrival time: when the last sample of the chunk became
        available to the receiver.  Non-decreasing across chunks.
    """

    samples: np.ndarray
    start_sample: int
    index: int
    arrival_s: float

    @property
    def size(self) -> int:
        return int(self.samples.size)

    @property
    def end_sample(self) -> int:
        return self.start_sample + self.size


class ChunkSource:
    """Protocol for chunked sample producers.

    Subclasses provide :attr:`meta` and iterate :class:`Chunk` objects in
    stream order.  Kept as a plain base class (not ``typing.Protocol``)
    so Python 3.9 stays supported.
    """

    meta: StreamMeta

    def __iter__(self) -> Iterator[Chunk]:  # pragma: no cover - interface
        raise NotImplementedError


class CaptureChunkSource(ChunkSource):
    """Replay an :class:`~repro.types.IQCapture` as a chunk stream.

    Parameters
    ----------
    capture:
        The capture to replay.
    chunk_size:
        Samples per chunk (the final chunk may be shorter).
    jitter_rel:
        Arrival jitter as a fraction of one chunk's nominal duration.
        Each chunk's arrival is its real-time completion plus a seeded
        uniform delay in ``[0, jitter_rel * chunk_duration]``; arrivals
        stay monotone because delays only push forward.
    rng:
        Jitter random stream (default: fresh, seed 0).  Kept separate
        from the simulation chain's RNG so replaying a capture never
        perturbs the physics that produced it.
    """

    def __init__(
        self,
        capture: IQCapture,
        chunk_size: int,
        jitter_rel: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if jitter_rel < 0:
            raise ValueError("jitter_rel cannot be negative")
        self.capture = capture
        self.chunk_size = int(chunk_size)
        self.jitter_rel = float(jitter_rel)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.meta = StreamMeta(
            sample_rate=capture.sample_rate,
            center_frequency=capture.center_frequency,
        )

    @property
    def n_chunks(self) -> int:
        n = self.capture.samples.size
        return (n + self.chunk_size - 1) // self.chunk_size

    def __iter__(self) -> Iterator[Chunk]:
        samples = self.capture.samples
        fs = self.capture.sample_rate
        chunk_duration = self.chunk_size / fs
        for index in range(self.n_chunks):
            lo = index * self.chunk_size
            hi = min(lo + self.chunk_size, samples.size)
            nominal = hi / fs
            jitter = 0.0
            if self.jitter_rel > 0:
                jitter = float(
                    self._rng.uniform(0.0, self.jitter_rel * chunk_duration)
                )
            yield Chunk(
                samples=samples[lo:hi],
                start_sample=lo,
                index=index,
                arrival_s=nominal + jitter,
            )
