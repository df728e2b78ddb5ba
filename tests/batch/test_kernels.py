"""Per-kernel bit-identity pins: stacked == scalar, element for element.

Each batched kernel claims a provable equivalence to its scalar
counterpart (same FFT sizes, same accumulation order).  These tests pin
that claim with ``array_equal`` - not ``allclose`` - against the actual
scalar code paths, including the chunked variants (chunking along the
trial axis must be invisible).
"""

import numpy as np
import pytest
from scipy import signal as sps

import repro.batch.kernels as kernels_mod
from repro.batch.kernels import (
    batched_bincount,
    batched_convolve_full,
    batched_decimate,
    batched_mix,
)
from repro.sdr.frontend import decimate, mix_to_baseband


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
        out = batched_mix(stack, rate, center, offset)
        for row, raw in zip(out, stack):
            ref = mix_to_baseband(raw, rate, center, oscillator_offset_hz=offset)
            assert np.array_equal(row, ref)

    def test_rejects_bad_rate(self, rng):
        with pytest.raises(ValueError, match="sample rate"):
            batched_mix(rng.standard_normal((1, 8)), 0.0, 1.0, 0.0)


class TestBatchedDecimate:
    def test_matches_scalar_decimate(self, rng):
        stack = (
            rng.standard_normal((3, 1000)) + 1j * rng.standard_normal((3, 1000))
        )
        out = batched_decimate(stack, 4)
        for row, raw in zip(out, stack):
            assert np.array_equal(row, decimate(raw, 4))

    def test_factor_one_is_identity(self, rng):
        stack = rng.standard_normal((2, 64)) + 0j
        assert batched_decimate(stack, 1) is stack

    def test_rejects_bad_factor(self, rng):
        with pytest.raises(ValueError, match="factor"):
            batched_decimate(rng.standard_normal((1, 8)) + 0j, 0)

    def test_chunked_equals_unchunked(self, rng, monkeypatch):
        stack = (
            rng.standard_normal((5, 600)) + 1j * rng.standard_normal((5, 600))
        )
        whole = batched_decimate(stack, 3)
        monkeypatch.setattr(kernels_mod, "CHUNK_BYTES", 1)
        chunked = batched_decimate(stack, 3)
        assert np.array_equal(whole, chunked)
