"""Per-kernel bit-identity pins: stacked == scalar, element for element.

Each batched kernel claims a provable equivalence to its scalar
counterpart (same FFT sizes, same accumulation order).  These tests pin
that claim with ``array_equal`` - not ``allclose`` - against the actual
scalar code paths, including the chunked variants (chunking along the
trial axis must be invisible).  The SDR front end,
:func:`repro.sdr.frontend.downconvert`, is pinned the same way across
the batch (a row's output is the one it gets alone) and to within
1e-12 of the full-rate formula it replaces.
"""

import numpy as np
import pytest
from scipy import signal as sps

import repro.batch.kernels as kernels_mod
from repro.batch.kernels import batched_bincount, batched_convolve_full
from repro.sdr.frontend import downconvert
from tests.sdr.test_frontend import reference_downconvert


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestBatchedBincount:
    def test_matches_per_row_bincount(self, rng):
        length = 500
        indices = [
            rng.integers(0, length, size=n) for n in (17, 400, 3)
        ]
        deposits = [rng.standard_normal(idx.size) for idx in indices]
        out = batched_bincount(indices, deposits, length)
        for row, idx, dep in zip(out, indices, deposits):
            ref = np.bincount(idx, weights=dep, minlength=length)
            assert np.array_equal(row, ref)

    def test_empty_rows_stay_zero(self, rng):
        indices = [np.empty(0, dtype=np.int64), rng.integers(0, 8, size=5)]
        deposits = [np.empty(0), rng.standard_normal(5)]
        out = batched_bincount(indices, deposits, 8)
        assert np.array_equal(out[0], np.zeros(8))
        ref = np.bincount(indices[1], weights=deposits[1], minlength=8)
        assert np.array_equal(out[1], ref)

    def test_all_empty_batch(self):
        out = batched_bincount([np.empty(0, dtype=np.int64)], [np.empty(0)], 4)
        assert np.array_equal(out, np.zeros((1, 4)))


class TestBatchedConvolve:
    def test_matches_per_row_fftconvolve(self, rng):
        stack = rng.standard_normal((5, 700))
        kernel = rng.standard_normal(43)
        out = batched_convolve_full(stack, kernel, 700)
        for row, raw in zip(out, stack):
            ref = sps.fftconvolve(raw, kernel)[:700]
            assert np.array_equal(row, ref)

    def test_chunked_equals_unchunked(self, rng, monkeypatch):
        stack = rng.standard_normal((7, 300))
        kernel = rng.standard_normal(11)
        whole = batched_convolve_full(stack, kernel, 300)
        monkeypatch.setattr(kernels_mod, "CHUNK_BYTES", 1)  # row at a time
        chunked = batched_convolve_full(stack, kernel, 300)
        assert np.array_equal(whole, chunked)


class TestBatchedMix:
    def test_matches_scalar_mix(self, rng):
        stack = rng.standard_normal((4, 512))
        rate, center, offset = 1e6, 2.5e5, 12.5
        out = downconvert(list(stack), rate, center, offset, 1)
        ref = reference_downconvert(stack, rate, center, offset, 1)
        assert np.array_equal(out, ref)

    def test_rejects_bad_rate(self, rng):
        with pytest.raises(ValueError, match="sample rate"):
            downconvert(list(rng.standard_normal((2, 8))), 0.0, 1.0, 0.0, 4)


class TestBatchedDecimate:
    def test_matches_scalar_decimate(self, rng):
        stack = rng.standard_normal((3, 9999))
        out = downconvert(list(stack), 1e6, 2.5e5, 12.5, 4)
        ref = reference_downconvert(stack, 1e6, 2.5e5, 12.5, 4)
        assert out.shape == ref.shape == (3, 2500)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_factor_one_is_identity(self, rng):
        # Without decimation there is no low-pass: a tone far outside
        # the factor-4 passband keeps its full (half-cosine) amplitude.
        tone = np.cos(2 * np.pi * 4.5e5 * np.arange(4000) / 1e6)
        out = downconvert([tone, tone], 1e6, 1e5, 0.0, 1)
        assert out.shape == (2, 4000)
        spectrum = np.abs(np.fft.fft(out[0])) / 4000
        assert spectrum.max() == pytest.approx(0.5)

    def test_rejects_bad_factor(self, rng):
        with pytest.raises(ValueError, match="factor"):
            downconvert(list(rng.standard_normal((2, 8))), 1e6, 1e5, 0.0, 0)

    def test_chunked_equals_unchunked(self, rng):
        # A row's output is the one it gets alone, bit for bit.
        stack = rng.standard_normal((5, 6000))
        whole = downconvert(list(stack), 1e6, 1e5, 7.0, 3)
        for row, raw in zip(whole, stack):
            (alone,) = downconvert([raw], 1e6, 1e5, 7.0, 3)
            assert np.array_equal(row, alone)

    def test_row_order_does_not_matter(self, rng):
        stack = rng.standard_normal((4, 6000))
        forward = downconvert(list(stack), 1e6, 1e5, 7.0, 4)
        backward = downconvert(list(stack[::-1]), 1e6, 1e5, 7.0, 4)
        assert np.array_equal(forward, backward[::-1])
