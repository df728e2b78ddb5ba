"""Trial-major vectorized kernels for the emission stages.

Every kernel here is a *stacking* of its scalar counterpart: N
independent trials' arrays are laid out trial-major (axis 0 = trial,
axis 1 = sample) and pushed through one numpy/scipy call instead of N.
The win is not algorithmic - it is amortising FFT plans, window tables,
filter taps and Python dispatch over the whole batch, exactly the
population-major idiom the sweep's homogeneous trial groups expose.

Bit-identity discipline: each kernel is only allowed transformations
that are provably element-identical to the scalar path, because the
emitted float64 waveform is cached under ``k_emit`` -

* ``scipy.signal.fftconvolve(stack, kern[None, :], axes=-1)`` computes
  each row with the same FFT length and the same complex arithmetic as
  the per-row call, so rows match bit-for-bit (pinned by tests);
* a flattened offset ``np.bincount`` performs the identical in-order
  per-bin float accumulation as N separate bincounts.

The SDR front end is :func:`repro.sdr.frontend.downconvert`: mix,
low-pass and decimate at the output rate, one row at a time.  It is
held to a looser contract - within 1e-12 of the full-rate
``fftconvolve(..., "same")[::factor]`` formula, and byte-identical
quantised captures.  The receiver side's Eq. 1 envelope has
:func:`repro.dsp.stft.band_energy`, shared with the batch, stream and
fleet receivers.

Row independence also makes every kernel chunk-invariant, so stacks are
processed in ~:data:`CHUNK_BYTES` blocks to bound peak memory without
changing a single output bit.

Observability: each kernel runs under a ``batch.kernel`` span and feeds
the ``batch.kernel.*`` metrics (batch size, bytes moved, seconds).
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np
from scipy import signal as sps

from ..obs.metrics import tap_batch_kernel
from ..obs.trace import span

#: Target upper bound for one chunk of stacked rows moving through an
#: FFT-based kernel.  Chunking along the trial axis is bit-safe (rows
#: are independent); this only bounds peak memory.
CHUNK_BYTES = 64 << 20


def _row_chunks(n_rows: int, row_bytes: int) -> List[Tuple[int, int]]:
    """Split ``n_rows`` into contiguous (start, stop) chunks of roughly
    ``CHUNK_BYTES`` each (always at least one row per chunk)."""
    if n_rows <= 0:
        return []
    per = max(int(CHUNK_BYTES // max(row_bytes, 1)), 1)
    return [(lo, min(lo + per, n_rows)) for lo in range(0, n_rows, per)]


def _kernel_span(name: str, batch: int, bytes_moved: int):
    return span(
        "batch.kernel",
        {"kernel": name, "batch": batch, "bytes": int(bytes_moved)},
    )


def batched_bincount(
    indices: Sequence[np.ndarray],
    deposits: Sequence[np.ndarray],
    length: int,
) -> np.ndarray:
    """N scatter-accumulations onto equal-length grids in one pass.

    Equivalent to ``np.bincount(idx_i, weights=dep_i, minlength=length)``
    per row: offsetting row ``i``'s indices by ``i * length`` and
    binning into a flattened ``(N * length,)`` grid performs the same
    in-order per-bin accumulation, because bins of different rows never
    alias.  Rows with empty index sets come back all-zero, matching the
    scalar guard.
    """
    n = len(indices)
    out = np.zeros((n, length))
    flat_parts = [
        idx.astype(np.int64) + i * length
        for i, idx in enumerate(indices)
        if idx.size
    ]
    if not flat_parts:
        return out
    started = time.perf_counter()
    with _kernel_span("bincount", n, out.nbytes):
        flat_idx = np.concatenate(flat_parts)
        flat_dep = np.concatenate([d for d in deposits if d.size])
        out = np.bincount(
            flat_idx, weights=flat_dep, minlength=n * length
        ).reshape(n, length)
    tap_batch_kernel(
        "bincount", n, out.nbytes, time.perf_counter() - started
    )
    return out


def batched_convolve_full(
    stack: np.ndarray, kernel: np.ndarray, out_len: int
) -> np.ndarray:
    """Row-wise ``fftconvolve(row, kernel)[:out_len]`` (full mode).

    The scalar emission synthesis truncates the full convolution back to
    the wave length; broadcasting the kernel over the stacked rows uses
    the same FFT size per row, so each row is bit-identical.
    """
    started = time.perf_counter()
    row_bytes = (stack.shape[1] + kernel.size) * 16
    out = np.empty((stack.shape[0], out_len))
    with _kernel_span("convolve", stack.shape[0], stack.nbytes):
        for lo, hi in _row_chunks(stack.shape[0], row_bytes):
            out[lo:hi] = sps.fftconvolve(
                stack[lo:hi], kernel[None, :], axes=-1
            )[:, :out_len]
    tap_batch_kernel(
        "convolve", stack.shape[0], stack.nbytes, time.perf_counter() - started
    )
    return out
