"""Signal-processing substrate: STFT and the Eq. 1 envelope kernel,
filters, detection, resampling."""

from .detection import bimodal_threshold, histogram_modes, local_maxima
from .filters import edge_kernel, lowpass, moving_average
from .render import ascii_lane, ascii_spectrogram, sparkline
from .resample import block_reduce, linear_resample
from .stft import (
    Spectrogram,
    band_energy,
    bin_frequencies,
    frame_count,
    frame_stack,
    frame_times,
    stft,
)
from .windows import get_window, hann, rectangular

__all__ = [
    "Spectrogram",
    "ascii_lane",
    "ascii_spectrogram",
    "band_energy",
    "bimodal_threshold",
    "bin_frequencies",
    "block_reduce",
    "edge_kernel",
    "frame_count",
    "frame_stack",
    "frame_times",
    "get_window",
    "hann",
    "histogram_modes",
    "linear_resample",
    "local_maxima",
    "lowpass",
    "moving_average",
    "rectangular",
    "sparkline",
    "stft",
]
