"""RTL-SDR v3 receiver model.

The paper's $25 receiver: 8-bit IQ samples at up to 2.4 MS/s with an
imperfect crystal.  The model applies the front-end mixing/decimation,
receiver thermal noise, an automatic gain stage, and 8-bit quantisation.
Quantisation matters: at long range the signal occupies few codes, which
contributes to the BER floor in Table III.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..types import IQCapture
from .frontend import downconvert


@dataclass
class RtlSdrV3:
    """An RTL-SDR v3 dongle.

    Attributes
    ----------
    sample_rate:
        Output complex sample rate (paper: 2.4 MS/s, the device maximum).
    bits:
        ADC resolution (8 for the RTL2832U).
    ppm_error:
        Crystal frequency error in parts-per-million.
    noise_floor:
        RMS of receiver-added noise, in antenna-voltage units, referred
        to the input.
    agc_target:
        Full-scale fraction the AGC drives the signal RMS toward.
    """

    sample_rate: float
    bits: int = 8
    ppm_error: float = 15.0
    noise_floor: float = 5e-5
    agc_target: float = 0.2

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        if not 2 <= self.bits <= 16:
            raise ValueError("ADC resolution out of range")

    def capture(
        self,
        antenna_voltage: np.ndarray,
        input_rate: float,
        center_frequency: float,
        rng: Optional[np.random.Generator] = None,
    ) -> IQCapture:
        """Digitise an antenna waveform into complex baseband IQ.

        Parameters
        ----------
        antenna_voltage:
            Real waveform at ``input_rate`` samples/s.
        input_rate:
            Rate of the incoming waveform; must be an integer multiple
            of the device sample rate.
        center_frequency:
            Tuned RF frequency in Hz.
        """
        rng = rng if rng is not None else np.random.default_rng(5)
        factor = self.decimation_factor(input_rate)
        noisy = antenna_voltage + self.noise_floor * rng.standard_normal(
            antenna_voltage.size
        )
        offset_hz = center_frequency * self.ppm_error * 1e-6
        (baseband,) = downconvert(
            [noisy], input_rate, center_frequency, offset_hz, factor
        )
        quantised = self._agc_and_quantise(baseband)
        return IQCapture(
            samples=quantised.astype(np.complex64),
            sample_rate=self.sample_rate,
            center_frequency=center_frequency,
        )

    def decimation_factor(self, input_rate: float) -> int:
        """The integer ratio of ``input_rate`` to the device rate."""
        factor = input_rate / self.sample_rate
        if abs(factor - round(factor)) > 1e-6:
            raise ValueError(
                f"input rate {input_rate} is not an integer multiple of "
                f"device rate {self.sample_rate}"
            )
        return int(round(factor))

    def _agc_and_quantise(self, baseband: np.ndarray) -> np.ndarray:
        """Scale into the ADC range and round to the code grid."""
        rms = float(np.sqrt(np.mean(np.abs(baseband) ** 2)))
        if baseband.size and not np.isfinite(rms):
            # One NaN or inf antenna sample spreads through the filter
            # into every IQ sample; refuse it rather than quantise NaN.
            raise ValueError(
                "baseband power is not finite: the antenna waveform "
                "holds NaN or inf samples"
            )
        if rms <= 0:
            rms = 1.0
        scale = self.agc_target / rms
        levels = 2 ** (self.bits - 1)
        i = np.clip(np.round(baseband.real * scale * levels), -levels, levels - 1)
        q = np.clip(np.round(baseband.imag * scale * levels), -levels, levels - 1)
        return (i + 1j * q) / levels
