"""Tests for the SDR front end (:func:`repro.sdr.frontend.downconvert`).

:func:`reference_downconvert` is the full-rate formula the kernel
replaces: mix every input sample with the LO, low-pass the whole row
with ``fftconvolve(..., "same")`` and keep every ``factor``-th sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

import repro.batch.chain as batch_chain
from repro.chain import paper_tuned_frequency_hz, render_capture, tuned_frequency_hz
from repro.em.environment import near_field_scenario
from repro.exec.context import execution_scope
from repro.params import TINY
from repro.sdr.frontend import NUMTAPS, downconvert
from repro.systems.laptops import TABLE_I
from repro.types import ActivityTrace, Interval


def reference_downconvert(
    rows, sample_rate, center_frequency, oscillator_offset_hz, factor
):
    """Mix, then ``fftconvolve(x, firwin(129, 0.8 / factor), "same")[::factor]``."""
    out = []
    for row in rows:
        n = np.arange(row.size)
        lo_freq = center_frequency + oscillator_offset_hz
        lo = np.exp(-2j * np.pi * lo_freq * n / sample_rate)
        mixed = row.astype(np.float64) * lo
        if factor > 1:
            taps = sps.firwin(NUMTAPS, 0.8 / factor)
            mixed = sps.fftconvolve(mixed, taps, mode="same")[::factor]
        out.append(mixed)
    return np.array(out, dtype=complex)


def _peak_tone(baseband, rate):
    spectrum = np.abs(np.fft.fft(baseband))
    freqs = np.fft.fftfreq(baseband.size, 1 / rate)
    return freqs[np.argmax(spectrum)]


class TestMixing:
    def test_tone_at_center_lands_at_dc(self):
        fs = 1e6
        tone = np.cos(2 * np.pi * 1e5 * np.arange(10000) / fs)
        (baseband,) = downconvert([tone], fs, 1e5, 0.0, 4)
        # The double-frequency mixing image is filtered out.
        assert abs(_peak_tone(baseband, fs / 4)) < 200

    def test_offset_tone_lands_at_offset(self):
        fs = 1e6
        tone = np.cos(2 * np.pi * 1.2e5 * np.arange(10000) / fs)
        (baseband,) = downconvert([tone], fs, 1e5, 0.0, 4)
        assert _peak_tone(baseband, fs / 4) == pytest.approx(2e4, abs=200)

    def test_oscillator_offset_shifts_spectrum(self):
        fs = 1e6
        tone = np.cos(2 * np.pi * 1e5 * np.arange(10000) / fs)
        (baseband,) = downconvert([tone], fs, 1e5, 5e3, 4)
        assert _peak_tone(baseband, fs / 4) == pytest.approx(-5e3, abs=200)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sample rate"):
            downconvert([np.zeros(8)], 0.0, 1e5, 0.0, 4)


class TestDecimation:
    def test_factor_one_is_identity(self):
        x = np.random.default_rng(3).standard_normal(500)
        out = downconvert([x], 1e6, 1e5, 12.5, 1)
        # No low-pass: the bare mix, bit for bit.
        assert np.array_equal(out, reference_downconvert([x], 1e6, 1e5, 12.5, 1))

    def test_output_length(self):
        assert downconvert([np.zeros(1000)], 1e6, 0.0, 0.0, 4).shape == (1, 250)
        assert downconvert([np.zeros(1001)], 1e6, 0.0, 0.0, 4).shape == (1, 251)
        assert downconvert([np.zeros(5)], 1e6, 0.0, 0.0, 8).shape == (1, 1)

    def test_in_band_tone_survives(self):
        fs = 1e6
        tone = np.cos(2 * np.pi * 1.2e5 * np.arange(40000) / fs)
        (out,) = downconvert([tone], fs, 1e5, 0.0, 4)
        # A real cosine puts half its amplitude on each side of the LO.
        assert np.abs(out[1000:-1000]).mean() == pytest.approx(0.5, rel=0.05)

    def test_out_of_band_tone_suppressed(self):
        fs = 1e6
        # 2.4e5 Hz from the LO: above 80% of the output Nyquist.
        tone = np.cos(2 * np.pi * 3.4e5 * np.arange(40000) / fs)
        (out,) = downconvert([tone], fs, 1e5, 0.0, 4)
        assert np.abs(out[1000:-1000]).mean() < 0.05

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError, match="factor"):
            downconvert([np.zeros(8)], 1e6, 1e5, 0.0, 0)

    def test_rejects_unequal_rows(self):
        with pytest.raises(ValueError, match="equal length"):
            downconvert([np.zeros(8), np.zeros(9)], 1e6, 1e5, 0.0, 4)


class TestFullRateFormula:
    @settings(deadline=None, max_examples=60)
    @given(
        # Shorter than the FIR, anything, and several FFT blocks long.
        size=st.one_of(
            st.integers(0, 2 * NUMTAPS),
            st.integers(0, 20000),
            st.integers(8192, 20000),
        ),
        factor=st.integers(1, 8),
        center=st.floats(0.0, 4.8e6),
        offset=st.floats(-1e5, 1e5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_rate_formula(self, size, factor, center, offset, seed):
        rate = 9.6e6
        x = np.random.default_rng(seed).standard_normal(size)
        out = downconvert([x], rate, center, offset, factor)
        ref = reference_downconvert([x], rate, center, offset, factor)
        assert out.shape == ref.shape == (1, len(range(0, size, factor)))
        if factor == 1:
            assert np.array_equal(out, ref)
        elif size:
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def _short_activity():
    """0.4 s of on-off keying: ~10 overlap-save blocks at TINY's RF rate."""
    return ActivityTrace(
        [Interval(0.01 * k, 0.01 * k + 0.004 + 0.001 * (k % 3)) for k in range(40)],
        duration=0.4,
    )


def _table2_captures():
    captures = []
    with execution_scope(jobs=1, cache_enabled=False):
        for machine in TABLE_I:
            scenario = near_field_scenario(
                tuned_frequency_hz(machine, TINY),
                physics_frequency_hz=paper_tuned_frequency_hz(machine),
            )
            captures.append(
                render_capture(
                    machine,
                    _short_activity(),
                    scenario,
                    TINY,
                    np.random.default_rng(42),
                )
            )
    return captures


def test_table2_captures_match_reference_front_end(monkeypatch):
    """The kernel's rounding never moves an 8-bit code: each Table II
    laptop's quantised capture equals the full-rate formula's, byte for
    byte."""
    fast = _table2_captures()
    monkeypatch.setattr(batch_chain, "downconvert", reference_downconvert)
    slow = _table2_captures()
    for machine, a, b in zip(TABLE_I, fast, slow):
        assert a.samples.tobytes() == b.samples.tobytes(), machine.name
