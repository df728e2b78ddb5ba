"""SDR front-end signal path: mix, low-pass and decimate in one kernel.

A direct-conversion receiver model: the real antenna voltage is mixed
with a complex local oscillator at the tuned frequency, low-pass
filtered, and decimated to the output sample rate.  Kept separate from
the RTL-SDR device model so alternative receivers can reuse it.

:func:`downconvert` computes only the output-rate samples.  The
low-pass is an overlap-save FFT filter whose per-block spectrum is
folded into ``L / factor`` bins before the inverse transform; folding
a spectrum aliases its time series, so the short inverse FFT yields
exactly every ``factor``-th filtered sample.  The result equals the
full-rate formula ``fftconvolve(mixed, taps, "same")[::factor]`` to
within 1e-12 of the signal's peak (FFT rounding only), and the
quantised captures it feeds are byte-identical to that formula's.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as spfft
from scipy import signal as sps

from ..obs.metrics import tap_batch_kernel
from ..obs.trace import span

#: Length of the linear-phase anti-alias FIR.
NUMTAPS = 129

#: Overlap-save FFT length in input samples, before rounding to a
#: multiple of the decimation factor.
BLOCK = 4096


def downconvert(
    rows: Sequence[np.ndarray],
    sample_rate: float,
    center_frequency: float,
    oscillator_offset_hz: float,
    factor: int,
) -> np.ndarray:
    """Complex-downconvert equal-length real rows and decimate them.

    Each row is mixed with one shared local oscillator at
    ``center_frequency + oscillator_offset_hz`` (the offset models the
    crystal's ppm error), low-pass filtered with a linear-phase FIR at
    80% of the output Nyquist so adjacent-band energy (e.g. the image of
    the VRM's second harmonic) is suppressed, and decimated by
    ``factor``.  Rows are filtered one at a time, so peak memory is
    O(row length); each row's output does not depend on the others.

    Returns a ``(len(rows), ceil(n / factor))`` complex array;
    ``factor == 1`` returns the mix unfiltered.
    """
    if sample_rate <= 0:
        raise ValueError("sample rate must be positive")
    if factor < 1:
        raise ValueError("decimation factor must be >= 1")
    size = rows[0].size if len(rows) else 0
    if any(row.size != size for row in rows):
        raise ValueError("rows must have equal length")
    started = time.perf_counter()
    in_bytes = sum(row.nbytes for row in rows)
    with span(
        "batch.kernel",
        {"kernel": "downconvert", "batch": len(rows), "bytes": in_bytes},
    ):
        n = np.arange(size)
        lo_freq = center_frequency + oscillator_offset_hz
        lo = np.exp(-2j * np.pi * lo_freq * n / sample_rate)
        out = np.empty((len(rows), len(range(0, size, factor))), dtype=complex)
        if factor == 1:
            for row, dest in zip(rows, out):
                np.multiply(np.asarray(row, dtype=np.float64), lo, out=dest)
        elif out.shape[1]:
            for row, dest in zip(rows, out):
                dest[:] = _folded_lowpass(row, lo, factor)
    tap_batch_kernel(
        "downconvert", len(rows), in_bytes, time.perf_counter() - started
    )
    return out


def _folded_lowpass(row: np.ndarray, lo: np.ndarray, factor: int) -> np.ndarray:
    """Overlap-save ``fftconvolve(row * lo, taps, "same")[::factor]``.

    Each FFT block of ``length = bins * factor`` input samples yields
    ``keep`` output samples.  The first kept sample sits at block
    position ``skip * factor``, the first multiple of ``factor`` past
    the ``NUMTAPS - 1`` positions the circular wrap corrupts; ``pad``
    leading zeros align that position with output sample 0 of the
    "same"-mode (centred, delay ``(NUMTAPS - 1) // 2``) convolution.
    """
    skip = -(-(NUMTAPS - 1) // factor)
    bins = max(BLOCK // factor, skip + 1)
    length = bins * factor
    keep = bins - skip
    pad = skip * factor - (NUMTAPS - 1) // 2
    # The folded inverse FFT is ``bins`` long; 1/factor restores the
    # ``length``-point normalisation.
    response = spfft.fft(sps.firwin(NUMTAPS, 0.8 / factor), length) / factor
    n_out = len(range(0, row.size, factor))
    n_blocks = -(-n_out // keep)
    step = keep * factor
    buf = np.zeros((n_blocks - 1) * step + length, dtype=complex)
    np.multiply(
        np.asarray(row, dtype=np.float64), lo, out=buf[pad : pad + row.size]
    )
    blocks = sliding_window_view(buf, length)[::step]
    spectrum = spfft.fft(blocks, axis=-1)
    spectrum *= response
    folded = spectrum.reshape(n_blocks, factor, bins).sum(axis=1)
    kept = spfft.ifft(folded, axis=-1)[:, skip:]
    return kept.reshape(-1)[:n_out]
