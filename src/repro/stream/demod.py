"""Stateful, chunk-incremental DSP: the streaming half of the receiver.

The batch receiver computes the Eq. 1 envelope of a whole capture with
one :func:`repro.dsp.stft.band_energy` call.  Here the same quantities
are produced chunk by chunk with explicit carry-over state:

* :class:`StreamingSTFT` buffers the window tail between chunks and
  stages exactly the frames the batch call would, in the same global
  positions (the framing contract lives in
  :func:`repro.dsp.stft.frame_stack`).
* :func:`advance_envelopes` runs stage -> ``band_energy`` -> complete
  over a group of same-shaped STFTs.  A lone receiver's push is the
  group of one; the fleet multiplexer runs the same call over a whole
  config group per tick.  Feeding the same samples in any chunking -
  including one sample at a time - yields bit-identical envelopes,
  because each frame is the same float vector through the same kernel.
* :func:`streaming_envelope` picks S through the batch
  :func:`repro.core.acquisition.harmonic_bins`, so streaming and batch
  can never disagree about the bins.
* :class:`StreamingConvolver` carries FIR state across chunk
  boundaries, matching ``np.convolve(x, k, mode="same")`` over the
  concatenated stream; the receiver uses it with the edge kernel from
  :mod:`repro.dsp.filters` for online bit-start detection.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..dsp.stft import band_energy, frame_stack, frame_times
from ..dsp.windows import get_window
from .source import StreamMeta


class StreamingSTFT:
    """Chunk-incremental STFT framing, frame-identical to the batch path.

    Parameters mirror :func:`repro.dsp.stft.stft`; ``complex_input``
    fixes the buffer dtype, hence FFT vs rfft, up front (the batch path
    infers it from the array dtype, which a stream cannot do before the
    first chunk).
    """

    def __init__(
        self,
        sample_rate: float,
        fft_size: int,
        hop: int,
        window: str = "hann",
        complex_input: bool = True,
    ):
        if fft_size < 2:
            raise ValueError("fft_size must be >= 2")
        if hop < 1:
            raise ValueError("hop must be >= 1")
        self.sample_rate = float(sample_rate)
        self.fft_size = int(fft_size)
        self.hop = int(hop)
        self.window = window
        self.complex_input = bool(complex_input)
        self._win = get_window(window, fft_size)
        dtype = np.complex128 if complex_input else np.float64
        # Preallocated growable window buffer: valid samples live at
        # ``_storage[_off : _off + _len]``.  Appends write in place,
        # consumption advances ``_off``, and the array is compacted /
        # doubled only when an append would not fit - so steady-state
        # chunk pushes reallocate nothing (see :meth:`reserve`).
        self._storage = np.empty(max(fft_size, 1), dtype=dtype)
        self._off = 0  # storage index of the first valid sample
        self._len = 0  # valid sample count
        self._buf_start = 0  # global index of the first valid sample
        self._received = 0  # total samples pushed
        self._emitted = 0  # complete frames emitted

    @property
    def frame_rate(self) -> float:
        return self.sample_rate / self.hop

    @property
    def n_frames(self) -> int:
        """Frames emitted so far."""
        return self._emitted

    @property
    def n_samples(self) -> int:
        """Samples consumed so far."""
        return self._received

    @property
    def buffer_capacity(self) -> int:
        """Current window-buffer capacity in samples."""
        return int(self._storage.size)

    def reserve(self, n_samples: int) -> None:
        """Grow the window buffer to hold ``n_samples`` without realloc.

        The stream runner calls this with the source's chunk size (plus
        the window tail) once the adaptive executor settles on
        batched-serial chunk service, so per-chunk pushes reuse one
        buffer instead of reallocating - same floats, fewer copies.
        """
        need = int(n_samples)
        if need <= self._storage.size:
            return
        grown = np.empty(max(need, 2 * self._storage.size), self._storage.dtype)
        grown[: self._len] = self._storage[self._off : self._off + self._len]
        self._storage = grown
        self._off = 0

    def _append(self, samples: np.ndarray) -> None:
        """Stage a chunk into the window buffer, compacting/growing once."""
        need = self._len + samples.size
        if self._off + need > self._storage.size:
            if need <= self._storage.size:
                # Shift the live tail to the front; no allocation.
                self._storage[: self._len] = self._storage[
                    self._off : self._off + self._len
                ]
            else:
                self.reserve(need)
            self._off = 0
        lo = self._off + self._len
        self._storage[lo : lo + samples.size] = samples.astype(
            self._storage.dtype
        )
        self._len = need

    @property
    def window_values(self) -> np.ndarray:
        """The window coefficients applied to each frame."""
        return self._win

    def stage(self, samples: np.ndarray) -> Tuple[np.ndarray, int]:
        """Append a chunk and expose the newly completed *raw* frames.

        Returns ``(frames, first_frame_index)`` where ``frames`` is a
        strided view of shape ``(n_new, fft_size)`` over the internal
        buffer - no window applied, no FFT taken.  The view is valid
        until the next :meth:`stage` on this instance (:meth:`complete`
        only advances offsets, it never moves data).

        :func:`advance_envelopes` stages every STFT of a group, runs one
        :func:`repro.dsp.stft.band_energy` call over the staged views,
        then calls :meth:`complete` per STFT.
        """
        samples = np.asarray(samples)
        if samples.size:
            self._append(samples)
            self._received += samples.size
        # The next frame starts at the global sample index hop * emitted
        # (past the buffered data when a hop jumps beyond it); frame
        # whatever the buffer holds from there on.
        local = self._off + self._emitted * self.hop - self._buf_start
        pending = self._storage[local : self._off + self._len]
        if pending.size < self.fft_size:
            return np.empty((0, self.fft_size), pending.dtype), self._emitted
        return frame_stack(pending, self.fft_size, self.hop)[0], self._emitted

    def complete(self, n_new: int) -> None:
        """Mark ``n_new`` staged frames emitted and release their samples."""
        if n_new <= 0:
            return
        self._emitted += n_new
        keep_from = min(self._emitted * self.hop, self._received)
        if keep_from > self._buf_start:
            # Consume in place: advance the offset, never reallocate.
            delta = keep_from - self._buf_start
            self._off += delta
            self._len -= delta
            self._buf_start = keep_from

    def times(self, first_frame: int, n_frames: int) -> np.ndarray:
        """Centre times for a run of frames (same floats as the batch)."""
        return frame_times(
            first_frame, n_frames, self.fft_size, self.hop, self.sample_rate
        )


def advance_envelopes(
    jobs: Sequence[Tuple[StreamingSTFT, np.ndarray, np.ndarray]],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Feed one chunk to each STFT of a group; returns each one's new
    Eq. 1 frames ``(y, times)``.

    Each job is ``(sstft, bins, samples)``; every STFT in the group must
    share fft size, window and input type (the multiplexer's group key).
    All staged frames go through one :func:`repro.dsp.stft.band_energy`
    call, in greedy blocks that may span job boundaries - rows are
    independent, so the layout never changes a bit.
    """
    staged = [sstft.stage(samples) for sstft, _, samples in jobs]
    ends = np.cumsum([frames.shape[0] for frames, _ in staged])
    readers = [
        (np.arange(end - frames.shape[0], end), bins)
        for (_, bins, _), (frames, _), end in zip(jobs, staged, ends)
    ]
    ys = band_energy(
        [frames for frames, _ in staged], jobs[0][0].window_values, readers
    )
    out = []
    for (sstft, _, _), (_, first), y in zip(jobs, staged, ys):
        sstft.complete(y.size)
        out.append((y, sstft.times(first, y.size)))
    return out


def streaming_envelope(
    meta: StreamMeta, vrm_frequency_hz: float, config
) -> Tuple[StreamingSTFT, np.ndarray]:
    """The covert receiver's incremental STFT and its Eq. 1 bin set S.

    ``config`` is a :class:`repro.core.acquisition.AcquisitionConfig`;
    bin selection goes through the *batch* :func:`harmonic_bins` so the
    streaming receiver can never pick a different S than the batch one.
    """
    from ..core.acquisition import harmonic_bins

    if vrm_frequency_hz <= 0:
        raise ValueError("VRM frequency must be positive")
    sstft = StreamingSTFT(
        meta.sample_rate,
        fft_size=config.fft_size,
        hop=config.hop,
        window=config.window,
        complex_input=True,
    )
    bins = harmonic_bins(meta.as_capture_stub(), vrm_frequency_hz, config)
    return sstft, bins


class StreamingConvolver:
    """Incremental ``np.convolve(x, kernel, mode="same")``.

    Carries the kernel-length input tail across pushes; outputs that
    still depend on future samples stay pending until :meth:`push`
    receives them or :meth:`finalize` zero-pads the right edge, exactly
    like the batch call's implicit edge handling.

    Emits exactly one output per input.  This matches the batch call
    whenever the stream is at least as long as the kernel; for shorter
    streams ``np.convolve(..., "same")`` pads its output out to the
    *kernel* length, a degenerate case the receiver never hits (the
    edge kernel is a fraction of one symbol period).
    """

    def __init__(self, kernel: np.ndarray):
        self.kernel = np.asarray(kernel, dtype=float)
        if self.kernel.size < 1:
            raise ValueError("kernel cannot be empty")
        self._shift = (self.kernel.size - 1) // 2
        self._tail = np.empty(0)
        self._fbuf = np.empty(0)  # pending full-conv values
        self._fstart = 0  # global full-conv index of _fbuf[0]
        self._n = 0  # inputs consumed
        self._emitted = 0  # same-mode outputs emitted
        self._finalized = False

    def push(self, x: np.ndarray) -> np.ndarray:
        """Feed inputs; returns the newly finalised same-mode outputs."""
        if self._finalized:
            raise RuntimeError("convolver already finalised")
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            return np.empty(0)
        work = np.concatenate([self._tail, x])
        full = np.convolve(work, self.kernel, mode="full")
        # Full-conv outputs for the new inputs: local indices
        # [len(tail), len(tail) + len(x)) map to global [n, n + len(x)).
        t = self._tail.size
        self._fbuf = np.concatenate([self._fbuf, full[t : t + x.size]])
        self._n += x.size
        keep = self.kernel.size - 1
        # Clamp at zero: during startup the whole history is shorter
        # than the kernel, and a negative start would silently slice
        # from the wrong end.
        self._tail = work[max(work.size - keep, 0) :] if keep else np.empty(0)
        return self._drain(self._n - self._shift)

    def finalize(self) -> np.ndarray:
        """Zero-pad the right edge and return the trailing outputs."""
        if self._finalized:
            return np.empty(0)
        self._finalized = True
        if self._n == 0:
            return np.empty(0)
        if self._shift:
            # The last `shift` full-conv values involve only the tail
            # (future samples are zeros, as in the batch edge).
            full = np.convolve(self._tail, self.kernel, mode="full")
            self._fbuf = np.concatenate([self._fbuf, full[self._tail.size :]])
        return self._drain(self._n)

    def _drain(self, emit_until: int) -> np.ndarray:
        """Emit same-mode outputs ``[_emitted, emit_until)``."""
        if emit_until <= self._emitted:
            return np.empty(0)
        lo = self._emitted + self._shift - self._fstart
        hi = emit_until + self._shift - self._fstart
        out = self._fbuf[lo:hi]
        self._emitted = emit_until
        self._fbuf = self._fbuf[hi:]
        self._fstart = self._emitted + self._shift
        return out
