"""repro.stream: real-time streaming receiver over chunked IQ.

The batch pipeline (:mod:`repro.core`) decodes a finished capture in one
pass; this package decodes the same signal *as it arrives*, the way an
attacker's SDR actually delivers it:

``source`` -> ``ring`` -> ``demod`` -> ``receiver``, driven by ``runner``.

The headline guarantee: a drop-free streaming run finalises to bits that
are **bit-exact** with :class:`~repro.core.decoder.BatchDecoder` on the
same capture, for any chunking (see DESIGN.md section 11).
"""

from .demod import (
    StreamingConvolver,
    StreamingSTFT,
    advance_envelopes,
    streaming_envelope,
)
from .receiver import (
    BitEvent,
    KeystrokeEvent,
    StreamingKeystrokeDetector,
    StreamingReceiver,
)
from .ring import POLICIES, BufferFull, RingBuffer
from .runner import StreamRunner, StreamRunResult, StreamStats
from .source import CaptureChunkSource, Chunk, ChunkSource, StreamMeta

__all__ = [
    "BitEvent",
    "BufferFull",
    "CaptureChunkSource",
    "Chunk",
    "ChunkSource",
    "KeystrokeEvent",
    "POLICIES",
    "RingBuffer",
    "StreamMeta",
    "StreamRunResult",
    "StreamRunner",
    "StreamStats",
    "StreamingConvolver",
    "StreamingKeystrokeDetector",
    "StreamingReceiver",
    "StreamingSTFT",
    "advance_envelopes",
    "streaming_envelope",
]
