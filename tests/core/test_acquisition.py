"""Tests for Eq. 1 acquisition."""

import numpy as np
import pytest

from repro.core.acquisition import (
    AcquisitionConfig,
    acquire,
    harmonic_bins,
)
from repro.dsp.stft import stft
from repro.types import IQCapture


def ook_capture(f0=5e3, fs=96e3, center=None, duration=0.5, depth=0.0):
    """Synthetic OOK capture: carrier + harmonic keyed on/off at 10 Hz."""
    center = center if center is not None else 1.5 * f0
    n = int(duration * fs)
    t = np.arange(n) / fs
    key = (np.floor(t * 10) % 2).astype(float)
    key = np.maximum(key, depth)
    wave = key * (
        np.exp(2j * np.pi * (f0 - center) * t)
        + 0.6 * np.exp(2j * np.pi * (2 * f0 - center) * t)
    )
    wave = wave + 0.01 * (
        np.random.default_rng(0).standard_normal(n)
        + 1j * np.random.default_rng(1).standard_normal(n)
    )
    return IQCapture(wave.astype(np.complex64), fs, center)


class TestHarmonicBins:
    def test_selects_fundamental_and_harmonic(self):
        cap = ook_capture()
        config = AcquisitionConfig(fft_size=256, hop=64, bin_halfwidth=0)
        spec = stft(cap.samples, cap.sample_rate, 256, 64)
        bins = harmonic_bins(cap, 5e3, config)
        freqs = spec.frequencies[bins]
        assert np.any(np.abs(freqs - (-2.5e3)) < 400)
        assert np.any(np.abs(freqs - (+2.5e3)) < 400)

    def test_out_of_band_harmonics_skipped(self):
        cap = ook_capture()
        config = AcquisitionConfig(
            fft_size=256, hop=64, harmonics=(1, 2, 30), bin_halfwidth=0
        )
        bins = harmonic_bins(cap, 5e3, config)
        assert bins.size >= 2  # fundamental + first harmonic survive

    def test_all_out_of_band_raises(self):
        cap = ook_capture()
        config = AcquisitionConfig(fft_size=256, hop=64, harmonics=(40,))
        with pytest.raises(ValueError, match="bandwidth"):
            harmonic_bins(cap, 5e3, config)

    def test_halfwidth_widens_selection(self):
        cap = ook_capture()
        narrow = harmonic_bins(
            cap, 5e3, AcquisitionConfig(256, 64, bin_halfwidth=0)
        )
        wide = harmonic_bins(
            cap, 5e3, AcquisitionConfig(256, 64, bin_halfwidth=2)
        )
        assert wide.size > narrow.size


class TestAcquire:
    def test_envelope_tracks_keying(self):
        cap = ook_capture()
        env = acquire(cap, 5e3, AcquisitionConfig(fft_size=256, hop=64))
        hi = np.percentile(env.samples, 90)
        lo = np.percentile(env.samples, 10)
        assert hi > 5 * lo

    def test_envelope_flat_without_keying(self):
        cap = ook_capture(depth=1.0)  # carrier always on
        env = acquire(cap, 5e3, AcquisitionConfig(fft_size=256, hop=64))
        hi = np.percentile(env.samples, 90)
        lo = np.percentile(env.samples, 10)
        assert hi < 1.5 * lo

    def test_harmonic_sum_raises_separation(self):
        cap = ook_capture()
        only_f0 = acquire(
            cap, 5e3, AcquisitionConfig(fft_size=256, hop=64, harmonics=(1,))
        )
        both = acquire(
            cap, 5e3, AcquisitionConfig(fft_size=256, hop=64, harmonics=(1, 2))
        )
        # Eq. 1's point: summing components increases the 0/1 magnitude
        # difference (in absolute terms).
        sep_f0 = np.percentile(only_f0.samples, 90) - np.percentile(
            only_f0.samples, 10
        )
        sep_both = np.percentile(both.samples, 90) - np.percentile(
            both.samples, 10
        )
        assert sep_both > sep_f0

    def test_frame_rate_and_times(self):
        cap = ook_capture()
        env = acquire(cap, 5e3, AcquisitionConfig(fft_size=256, hop=64))
        assert env.frame_rate == pytest.approx(cap.sample_rate / 64)
        assert env.times.size == env.samples.size

    def test_slice_seconds(self):
        cap = ook_capture()
        env = acquire(cap, 5e3, AcquisitionConfig(fft_size=256, hop=64))
        part = env.slice_seconds(0.1, 0.2)
        assert part.duration == pytest.approx(0.1, rel=0.1)

    def test_rejects_bad_frequency(self):
        cap = ook_capture()
        with pytest.raises(ValueError):
            acquire(cap, -5e3)


class TestConfigValidation:
    def test_rejects_empty_harmonics(self):
        with pytest.raises(ValueError):
            AcquisitionConfig(harmonics=())

    def test_rejects_zero_harmonic(self):
        with pytest.raises(ValueError):
            AcquisitionConfig(harmonics=(0, 1))

    def test_rejects_negative_halfwidth(self):
        with pytest.raises(ValueError):
            AcquisitionConfig(bin_halfwidth=-1)
