"""Trial-major execution of the analog chain (DESIGN.md §14).

A sweep's homogeneous trial groups would otherwise re-do most of the
chain's Python dispatch (FFT plans, window tables, filter taps, LO
synthesis) N times.  This package cuts the loop nest trial-major:

* :mod:`repro.batch.kernels` - stacked ndarray kernels for the hot
  analog stages (scatter deposit, pulse convolution, mix, decimate),
  each bit-identical per row to its one-row form and chunked to bound
  peak memory.
* :mod:`repro.batch.chain` - :func:`render_captures_batched`: the one
  chain resolver.  It resolves N trials' captures through the layered
  chain cache with each distinct node computed exactly once, grouped
  through the kernels; :func:`repro.chain.render_capture` is a batch
  of one.
* :mod:`repro.batch.runner` - :func:`run_trials_batched`: the sweep
  engine's execution lane, producing records bit-identical to naive
  per-trial execution (schema, decoded bits, RNG digests); its
  receiver tails share one union-of-positions
  :func:`repro.dsp.stft.band_energy` call per capture.
"""

from .chain import ChainRequest, ResolvedCapture, render_captures_batched
from .kernels import (
    CHUNK_BYTES,
    batched_bincount,
    batched_convolve_full,
    batched_decimate,
    batched_mix,
)
from .runner import run_trials_batched

__all__ = [
    "CHUNK_BYTES",
    "ChainRequest",
    "ResolvedCapture",
    "batched_bincount",
    "batched_convolve_full",
    "batched_decimate",
    "batched_mix",
    "render_captures_batched",
    "run_trials_batched",
]
