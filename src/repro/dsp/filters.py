"""The receiver's edge-detection kernel."""

from __future__ import annotations

import numpy as np


def edge_kernel(length: int) -> np.ndarray:
    """The paper's derivative-mimicking kernel (Section IV-B2).

    A vector of length ``l_d`` whose first half is +1 and second half is
    -1; convolving it with the envelope peaks at rising edges.  Returned
    so that convolution output is positive on *rising* edges.
    """
    if length < 2:
        raise ValueError("edge kernel needs length >= 2")
    half = length // 2
    kernel = np.empty(2 * half)
    kernel[:half] = 1.0
    kernel[half:] = -1.0
    return kernel
