"""Tests for the edge kernel."""

import numpy as np
import pytest

from repro.dsp.filters import edge_kernel


class TestEdgeKernel:
    def test_shape_and_balance(self):
        k = edge_kernel(10)
        assert k.size == 10
        assert k.sum() == pytest.approx(0.0)
        assert np.all(k[:5] == 1.0)
        assert np.all(k[5:] == -1.0)

    def test_odd_length_rounds_down(self):
        assert edge_kernel(9).size == 8

    def test_convolution_peaks_positive_on_rising_edge(self):
        y = np.concatenate([np.zeros(50), np.ones(50)])
        response = np.convolve(y, edge_kernel(20), mode="same")
        assert response[np.argmax(np.abs(response))] > 0
        assert abs(np.argmax(response) - 50) <= 2

    def test_falling_edge_gives_negative_peak(self):
        y = np.concatenate([np.ones(50), np.zeros(50)])
        # Ignore the convolution's own boundary transient at the start.
        response = np.convolve(y, edge_kernel(20), mode="same")[15:]
        assert response.min() < 0
        assert abs(np.argmin(response) + 15 - 50) <= 2

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            edge_kernel(1)
