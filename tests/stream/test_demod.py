"""Tests for the chunk-incremental DSP.

The core claim of the streaming subsystem: feeding the same samples in
*any* chunking yields bit-identical envelopes and convolutions.
Everything downstream (receiver equivalence, baselines) rests on these
tests; the kernel-level property over every receiver path lives in
``tests/dsp/test_band_energy.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquisition import AcquisitionConfig, acquire
from repro.dsp.filters import edge_kernel
from repro.dsp.stft import stft
from repro.stream.demod import (
    StreamingConvolver,
    StreamingSTFT,
    advance_envelopes,
    streaming_envelope,
)
from repro.stream.source import StreamMeta
from repro.types import IQCapture

#: Bins valid for every STFT below (real fft_size 64 has 33 bins).
BINS = np.array([0, 5, 17, 31])


def _signal(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)


def _chunked(x, sizes):
    """Split ``x`` into chunks of the given sizes, cycling as needed."""
    out, pos, i = [], 0, 0
    while pos < x.size:
        size = sizes[i % len(sizes)]
        out.append(x[pos : pos + size])
        pos += size
        i += 1
    return out


def _stream(s, pieces, bins=BINS):
    """Push ``pieces`` through ``s`` one group-of-one step at a time;
    returns the concatenated ``(envelope, times)``."""
    ys, ts = [], []
    for piece in pieces:
        ((y, t),) = advance_envelopes([(s, bins, piece)])
        ys.append(y)
        ts.append(t)
    return np.concatenate(ys), np.concatenate(ts)


class TestStreamingSTFT:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StreamingSTFT(1e3, fft_size=1, hop=4)
        with pytest.raises(ValueError):
            StreamingSTFT(1e3, fft_size=64, hop=0)

    @pytest.mark.parametrize("chunk", [1, 17, 64, 100, 4096, 100_000])
    def test_bit_exact_with_batch_for_any_chunking(self, chunk):
        x = _signal(3000)
        batch = stft(x, 1e4, fft_size=128, hop=32)
        s = StreamingSTFT(1e4, fft_size=128, hop=32)
        y, times = _stream(s, _chunked(x, [chunk]))
        np.testing.assert_array_equal(y, batch.band_energy(BINS))
        np.testing.assert_array_equal(times, batch.times)

    def test_hop_larger_than_fft_size(self):
        x = _signal(2000, seed=3)
        batch = stft(x, 1e4, fft_size=64, hop=100)
        s = StreamingSTFT(1e4, fft_size=64, hop=100)
        y, _ = _stream(s, _chunked(x, [97]))
        np.testing.assert_array_equal(y, batch.band_energy(BINS))

    def test_real_input_one_sided(self):
        x = np.random.default_rng(1).normal(size=1000)
        batch = stft(x, 1e3, fft_size=64, hop=16)
        s = StreamingSTFT(1e3, fft_size=64, hop=16, complex_input=False)
        y, _ = _stream(s, _chunked(x, [33]))
        np.testing.assert_array_equal(y, batch.band_energy(BINS))


class TestStreamingEnvelope:
    def test_matches_batch_acquire(self):
        fs = 2e5
        n = 20_000
        t = np.arange(n) / fs
        vrm = 2.5e4
        x = (
            np.exp(2j * np.pi * (vrm - 3.75e4) * t)
            + 0.5 * np.exp(2j * np.pi * (2 * vrm - 3.75e4) * t)
        ).astype(np.complex64)
        capture = IQCapture(
            samples=x, sample_rate=fs, center_frequency=3.75e4
        )
        config = AcquisitionConfig(fft_size=256, hop=32)
        batch = acquire(capture, vrm, config)
        meta = StreamMeta(sample_rate=fs, center_frequency=3.75e4)
        sstft, bins = streaming_envelope(meta, vrm, config)
        y, times = _stream(sstft, _chunked(x, [777]), bins)
        np.testing.assert_array_equal(y, batch.samples)
        np.testing.assert_array_equal(times, batch.times)
        assert sstft.frame_rate == batch.frame_rate

    def test_rejects_empty_bins(self):
        # No harmonic inside the band: S would be empty.
        meta = StreamMeta(sample_rate=2e5, center_frequency=3.75e4)
        config = AcquisitionConfig(fft_size=256, hop=32)
        with pytest.raises(ValueError, match="bandwidth"):
            streaming_envelope(meta, 5e6, config)


class TestStreamingConvolver:
    @pytest.mark.parametrize("kernel_len", [2, 5, 8, 31])
    @pytest.mark.parametrize("chunk", [1, 3, 50, 1000])
    def test_matches_same_mode_convolution(self, kernel_len, chunk):
        x = np.random.default_rng(9).normal(size=400)
        kernel = edge_kernel(kernel_len)
        want = np.convolve(x, kernel, mode="same")
        conv = StreamingConvolver(kernel)
        parts = [conv.push(piece) for piece in _chunked(x, [chunk])]
        parts.append(conv.finalize())
        got = np.concatenate(parts)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got.size == want.size

    @settings(deadline=None, max_examples=25)
    @given(
        sizes=st.lists(st.integers(1, 97), min_size=1, max_size=6),
        kernel_len=st.integers(2, 40),
        # Streams at least one kernel long: below that, numpy's "same"
        # mode pads out to the *kernel* length (documented degenerate
        # case the receiver never hits).
        n=st.integers(40, 300),
    )
    def test_property_chunking_never_changes_output(self, sizes, kernel_len, n):
        x = np.random.default_rng(5).normal(size=n)
        kernel = edge_kernel(kernel_len)
        want = np.convolve(x, kernel, mode="same")
        conv = StreamingConvolver(kernel)
        parts = [conv.push(piece) for piece in _chunked(x, sizes)]
        parts.append(conv.finalize())
        got = np.concatenate(parts)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_push_after_finalize_raises(self):
        conv = StreamingConvolver(edge_kernel(4))
        conv.push(np.ones(10))
        conv.finalize()
        with pytest.raises(RuntimeError):
            conv.push(np.ones(2))


class TestBufferReuse:
    """The preallocated window buffer: reuse is invisible in the output."""

    def test_reserved_buffer_never_regrows(self):
        x = _signal(50_000)
        batch = stft(x, 1e4, fft_size=128, hop=32)
        s = StreamingSTFT(1e4, fft_size=128, hop=32)
        s.reserve(2 * 4096)
        cap = s.buffer_capacity
        y, _ = _stream(s, _chunked(x, [4096]))
        assert s.buffer_capacity == cap  # compaction, never reallocation
        assert np.array_equal(y, batch.band_energy(BINS))

    def test_unreserved_growth_is_bit_identical(self):
        x = _signal(9000)
        batch = stft(x, 1e4, fft_size=64, hop=16)
        s = StreamingSTFT(1e4, fft_size=64, hop=16)
        assert s.buffer_capacity == 64  # starts window-sized
        y, _ = _stream(s, _chunked(x, [3000]))
        assert s.buffer_capacity >= 3000  # grew on demand
        assert np.array_equal(y, batch.band_energy(BINS))

    def test_reserve_preserves_pending_tail(self):
        x = _signal(500)
        batch = stft(x, 1e4, fft_size=128, hop=32)
        s = StreamingSTFT(1e4, fft_size=128, hop=32)
        first, _ = _stream(s, [x[:200]])
        s.reserve(100_000)  # mid-stream growth must carry the tail
        rest, _ = _stream(s, [x[200:]])
        got = np.concatenate([first, rest])
        assert np.array_equal(got, batch.band_energy(BINS))

    def test_reserve_noop_when_already_large_enough(self):
        s = StreamingSTFT(1e4, fft_size=64, hop=16)
        s.reserve(1024)
        cap = s.buffer_capacity
        s.reserve(10)
        assert s.buffer_capacity == cap
