"""Trial-major execution of the analog chain (DESIGN.md §14).

A sweep's homogeneous trial groups would otherwise re-do most of the
chain's Python dispatch (FFT plans, window tables, filter taps, LO
synthesis) N times.  This package cuts the loop nest trial-major:

* :mod:`repro.batch.kernels` - stacked ndarray kernels for the
  emission stages (scatter deposit, pulse convolution), each
  bit-identical per row to its one-row form and chunked to bound peak
  memory.  The SDR stage runs :func:`repro.sdr.frontend.downconvert`,
  which mixes, low-passes and decimates at the output rate, within
  1e-12 of the full-rate formula and with byte-identical quantised
  captures.
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
from .kernels import CHUNK_BYTES, batched_bincount, batched_convolve_full
from .runner import run_trials_batched

__all__ = [
    "CHUNK_BYTES",
    "ChainRequest",
    "ResolvedCapture",
    "batched_bincount",
    "batched_convolve_full",
    "render_captures_batched",
    "run_trials_batched",
]
