"""Short-time Fourier transform utilities.

The receiver's acquisition step (paper Eq. 1) is a sliding FFT over the
IQ stream; the keylogging detector (Section V-C) uses non-overlapping
5 ms windows.  Frames are strided views (:func:`frame_stack`), so
hop << M is memory-cheap until the FFT output itself.

Framing is defined once, by :func:`frame_count` / :func:`frame_times`:
frame ``i`` covers samples ``[i * hop, i * hop + fft_size)`` and a
trailing partial window (fewer than ``fft_size`` samples past the last
complete frame) is dropped.  The batch path here and the chunked path in
:mod:`repro.stream.demod` both build on these helpers, so a capture
split at any chunk boundary frames identically to the monolithic call -
including the awkward tail lengths the regression tests pin.

The Eq. 1 envelope is computed by one kernel, :func:`band_energy`, for
every receiver: the batch :func:`repro.core.acquisition.acquire` and
keystroke detector, the trial-batched sweep lane, the streaming
receivers and the fleet multiplexer.  :func:`stft` keeps full
magnitudes only for the spectrogram figures and as the reference the
kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .windows import get_window

#: Upper bound on the complex spectra of one :func:`band_energy` block.
#: Sized so the window-product scratch block, its spectra and the
#: window stay resident in last-level cache across multiply -> FFT ->
#: gather: on the 1000-stream fleet benchmark, 64 MiB blocks ran the
#: kernel 2.2x slower than 4 MiB blocks, while blocks below ~1 MiB
#: start paying per-block dispatch.  Still >= 1 row at fft sizes up to
#: 256k.  Rows are independent, so the block layout never changes an
#: output bit.
BLOCK_BYTES = 4 * 1024 * 1024


@dataclass
class Spectrogram:
    """STFT magnitudes and their axes.

    Attributes
    ----------
    magnitudes:
        Array of shape ``(n_frames, n_bins)`` of spectral magnitudes.
    times:
        Centre time of each frame, in seconds.
    frequencies:
        Frequency of each bin, in Hz.  For complex input these span
        ``[-fs/2, fs/2)`` (fftshifted); for real input ``[0, fs/2]``.
    hop:
        Hop size in samples.
    fft_size:
        FFT length M.
    sample_rate:
        Input sample rate.
    """

    magnitudes: np.ndarray
    times: np.ndarray
    frequencies: np.ndarray
    hop: int
    fft_size: int
    sample_rate: float

    @property
    def frame_rate(self) -> float:
        """Frames per second of the time axis."""
        return self.sample_rate / self.hop

    def band_indices(self, low_hz: float, high_hz: float) -> np.ndarray:
        """Bin indices whose frequency lies in ``[low_hz, high_hz]``."""
        return np.nonzero(
            (self.frequencies >= low_hz) & (self.frequencies <= high_hz)
        )[0]

    def nearest_bin(self, frequency_hz: float) -> int:
        """Index of the bin closest to ``frequency_hz``."""
        return int(np.argmin(np.abs(self.frequencies - frequency_hz)))

    def band_energy(self, bins: np.ndarray) -> np.ndarray:
        """Sum of magnitudes over the given bins, per frame (Eq. 1 form)."""
        return self.magnitudes[:, bins].sum(axis=1)


def frame_count(n_samples: int, fft_size: int, hop: int) -> int:
    """Number of complete STFT frames in ``n_samples``.

    Frame ``i`` starts at ``i * hop`` and needs ``fft_size`` samples, so
    the count is ``floor((n - fft_size) / hop) + 1`` (zero when the
    input is shorter than one window).  This is the single definition of
    the capture-tail behaviour: samples past the last complete frame are
    dropped, never padded into a partial frame.
    """
    if fft_size < 2:
        raise ValueError("fft_size must be >= 2")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if n_samples < fft_size:
        return 0
    return (n_samples - fft_size) // hop + 1


def frame_times(
    first_frame: int, n_frames: int, fft_size: int, hop: int, sample_rate: float
) -> np.ndarray:
    """Centre times of frames ``first_frame .. first_frame + n_frames``.

    Kept as one function so the chunked path stamps exactly the same
    float values as the batch path for the same global frame index.
    """
    indices = np.arange(first_frame, first_frame + n_frames)
    return (indices * hop + fft_size / 2) / sample_rate


def stft(
    samples: np.ndarray,
    sample_rate: float,
    fft_size: int = 1024,
    hop: int = 32,
    window: str = "hann",
) -> Spectrogram:
    """Compute an STFT magnitude spectrogram.

    Complex input produces a two-sided (fftshifted) frequency axis, which
    is what the SDR IQ path needs; real input produces a one-sided axis.
    """
    frames, n_frames = frame_stack(samples, fft_size, hop)
    win = get_window(window, fft_size)
    complex_input = np.iscomplexobj(frames)
    if complex_input:
        spectra = np.fft.fft(frames * win, axis=1)
        spectra = np.fft.fftshift(spectra, axes=1)
    else:
        spectra = np.fft.rfft(frames * win, axis=1)
    return Spectrogram(
        magnitudes=np.abs(spectra),
        times=frame_times(0, n_frames, fft_size, hop, sample_rate),
        frequencies=bin_frequencies(fft_size, sample_rate, complex_input),
        hop=hop,
        fft_size=fft_size,
        sample_rate=sample_rate,
    )


def bin_frequencies(
    fft_size: int, sample_rate: float, complex_input: bool
) -> np.ndarray:
    """Frequency of each STFT bin, in Hz.

    Complex input has a two-sided fftshifted axis ``[-fs/2, fs/2)``,
    real input a one-sided ``[0, fs/2]``; the bin indices every receiver
    selects (Eq. 1's S) are positions on this axis.
    """
    if complex_input:
        return np.fft.fftshift(np.fft.fftfreq(fft_size, d=1.0 / sample_rate))
    return np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)


def frame_stack(
    samples: np.ndarray, fft_size: int, hop: int
) -> Tuple[np.ndarray, int]:
    """The complete frames of ``samples`` as a strided view, and their
    count; raises the :func:`stft` error when there are none."""
    samples = np.asarray(samples)
    n_frames = frame_count(samples.size, fft_size, hop)
    if n_frames == 0:
        raise ValueError(
            f"need at least fft_size={fft_size} samples, got {samples.size}"
        )
    return sliding_window_view(samples, fft_size)[::hop][:n_frames], n_frames


def band_energy(
    parts: Sequence[np.ndarray],
    window: np.ndarray,
    readers: Sequence[Tuple[np.ndarray, np.ndarray]],
    take: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Eq. 1 envelopes ``Y = sum_{k in bins} |FFT(frame * window)[k]|``.

    ``parts`` are 2D frame arrays (strided views are fine) stacked into
    one row space; complex rows get a full FFT, real rows an rfft.  With
    a single part, ``take`` (sorted, distinct row indices) transforms
    only those rows of it, and the row space is the taken rows.  Each
    reader ``(rows, bins)`` gets the envelope at ``rows`` - sorted,
    distinct indices into the row space - over ``bins``, positions on the
    :func:`bin_frequencies` axis.  Every row is transformed once,
    however many readers share it.

    Bit-identical to ``stft(...).magnitudes[rows][:, bins].sum(axis=1)``:
    fftshift is a column permutation and ``|.|`` is elementwise, so
    gathering the requested columns of the unshifted spectra before
    ``|.|`` yields the same values in the same order, reduced over the
    same ``(rows, bins)`` layout.  Rows go through the window multiply
    and FFT in greedy blocks of at most :data:`BLOCK_BYTES` of spectra,
    written into one reused scratch block.
    """
    fft_size = window.size
    complex_input = np.iscomplexobj(parts[0])
    n_bins = fft_size if complex_input else fft_size // 2 + 1
    every = np.concatenate([bins for _, bins in readers] or [[]])
    if every.size and (every.min() < 0 or every.max() >= n_bins):
        raise ValueError(
            f"bins must lie in [0, {n_bins}), got {every.min()}..{every.max()}"
        )
    # Shifted bin b lives in unshifted column (b - M//2) mod M.
    columns = np.arange(n_bins)
    if complex_input:
        columns = np.fft.fftshift(columns)
    sizes = [part.shape[0] for part in parts] if take is None else [take.size]
    total = sum(sizes)
    limit = max(1, min(BLOCK_BYTES // (fft_size * 16), total))
    # Blocks are aligned at multiples of ``limit`` rows, so row r sits
    # in block r // limit at local index r % limit.
    by_block: List[list] = [[] for _ in range(-(-total // limit))]
    outs = []
    for rows, bins in readers:
        out = np.empty(len(rows))
        outs.append(out)
        if not out.size:
            continue
        cols = columns[bins]
        first, last = int(rows[0]) // limit, int(rows[-1]) // limit
        starts = range((first + 1) * limit, (last + 1) * limit, limit)
        inner = np.searchsorted(rows, starts).tolist() if starts else []
        cuts = [0, *inner, out.size]  # where the rows cross block starts
        for b, lo, hi in zip(range(first, last + 1), cuts, cuts[1:]):
            if lo == hi:
                continue
            base = b * limit
            head, tail = int(rows[lo]) - base, int(rows[hi - 1]) - base
            if tail - head == hi - lo - 1:  # contiguous rows: a slice
                local = slice(head, tail + 1)
            else:
                local = (rows[lo:hi] - base)[:, None]
            by_block[b].append((local, cols, out[lo:hi]))
    if total == 0:
        return outs
    transform = np.fft.fft if complex_input else np.fft.rfft
    scratch = np.empty(
        (limit, fft_size), dtype=np.complex128 if complex_input else np.float64
    )
    block = filled = 0
    for part, n in zip(parts, sizes):
        lo = 0
        while lo < n:
            k = min(n - lo, limit - filled)
            rows = part[lo : lo + k] if take is None else part[take[lo : lo + k]]
            np.multiply(rows, window, out=scratch[filled : filled + k])
            filled += k
            lo += k
            if filled == limit or block * limit + filled == total:
                spectra = transform(scratch[:filled], axis=1)
                for local, cols, dst in by_block[block]:
                    np.abs(spectra[local, cols]).sum(axis=1, out=dst)
                del spectra  # free it before the next block's FFT allocates
                block += 1
                filled = 0
    return outs
