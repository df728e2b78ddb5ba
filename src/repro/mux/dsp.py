"""Cross-stream batched DSP: one kernel call per config group per tick.

A fleet of 1k receivers each pushing its own chunks pays the per-call
numpy dispatch price (window multiply, FFT plan lookup, bin gather -
each a separate small-array call) a thousand times per tick.  The
multiplexer instead runs each group's streams through one
:func:`repro.stream.demod.advance_envelopes` call - the same call a
lone receiver's ``push_samples`` makes for its group of one:

1. every stream **stages** its pending samples
   (:meth:`StreamingSTFT.stage` - raw frame views, no window/FFT);
2. one :func:`repro.dsp.stft.band_energy` call transforms the staged
   rows of the whole group in greedy blocks that may span stream
   boundaries, and gathers each stream's Eq. 1 envelope over its own
   bins (rows are independent, so the block layout cannot change any
   output row);
3. each stream **completes** its staged frames and feeds the envelope
   to its receiver via ``push_envelope``.

Streams may only share a kernel call when every parameter that shapes
a frame matches; :attr:`MuxStream.group_key` captures exactly that set
(fft size, hop, window, complex/real input, sample rate).  Receivers
with different *bins* still batch together - each is its own reader
of the shared spectra.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import tap_mux_group
from ..obs.trace import span
from ..stream.demod import advance_envelopes


class MuxStream:
    """Adapter binding one receiver into the batched-DSP tick.

    Wraps any receiver exposing the mux hooks grown in
    :mod:`repro.stream.receiver`: ``sstft`` and ``bins`` (the
    incremental STFT and Eq. 1 bin set it consumes) and
    ``push_envelope``; receivers that keep per-sample statistics
    outside the STFT (the keystroke detector's RMS accumulator) also
    expose ``account_samples``, which the tick routes every sample
    through - including gap zeros - before staging.
    """

    def __init__(self, stream_id: str, receiver):
        self.stream_id = stream_id
        self.receiver = receiver
        self.sstft = receiver.sstft
        self.bins = np.asarray(receiver.bins, dtype=int)
        self.account: Optional[Callable[[np.ndarray], None]] = getattr(
            receiver, "account_samples", None
        )
        self._pending: List[np.ndarray] = []
        self.pending_samples = 0

    @property
    def group_key(self) -> Tuple[int, int, str, bool, float]:
        """Everything that must match for two streams to share an FFT."""
        s = self.sstft
        return (s.fft_size, s.hop, s.window, s.complex_input, s.sample_rate)

    def buffer(self, samples: np.ndarray) -> None:
        """Queue delivered samples for this stream's next tick."""
        if samples.size:
            self._pending.append(samples)
            self.pending_samples += samples.size

    def take_pending(self) -> Optional[np.ndarray]:
        """Drain the tick's deliveries as one contiguous chunk."""
        if not self._pending:
            return None
        if len(self._pending) == 1:
            out = self._pending[0]
        else:
            out = np.concatenate(self._pending)
        self._pending = []
        self.pending_samples = 0
        return out


def group_streams(streams: Sequence[MuxStream]) -> Dict[tuple, List[MuxStream]]:
    """Partition streams into batched-kernel groups (insertion-ordered)."""
    groups: Dict[tuple, List[MuxStream]] = {}
    for ms in streams:
        groups.setdefault(ms.group_key, []).append(ms)
    return groups


def tick_group(
    streams: Sequence[MuxStream], now_s: float
) -> List[Tuple[MuxStream, list]]:
    """Run one batched DSP tick over a compatible group.

    Drains every stream's pending deliveries, runs them through one
    :func:`advance_envelopes` call, and hands each stream its envelope
    slice through ``push_envelope``.  Returns ``(stream, events)``
    pairs for streams that produced envelope frames or events this
    tick.  The envelope each receiver sees is the one its own
    ``push_samples`` would have produced, bit for bit, in any chunking.
    """
    members: List[MuxStream] = []
    jobs = []
    for ms in streams:
        samples = ms.take_pending()
        if samples is None:
            continue
        if ms.account is not None:
            ms.account(samples)
        members.append(ms)
        jobs.append((ms.sstft, ms.bins, samples))
    if not jobs:
        return []
    fft_size, hop, _, _, sample_rate = streams[0].group_key
    out: List[Tuple[MuxStream, list]] = []
    total_rows = 0
    with span(
        "mux.group",
        attrs={"streams": len(jobs), "fft_size": fft_size, "hop": hop},
        lazy=lambda: {"frames": total_rows},
    ):
        for ms, (y, times) in zip(members, advance_envelopes(jobs)):
            total_rows += y.size
            events = ms.receiver.push_envelope(y, times, now_s)
            if y.size or events:
                out.append((ms, events))
    tap_mux_group(len(jobs), total_rows, total_rows * hop / sample_rate)
    return out
