"""Online receivers: decode the emission as it arrives.

Two consumers share the chunk-push interface the runner drives
(``push_samples`` / ``push_gap`` / ``finalize``):

* :class:`StreamingReceiver` - the covert-channel bit receiver.  As
  chunks land it extends the Eq. 1 envelope incrementally, detects bit
  starts with a carried-over edge convolution, labels bits against a
  *rolling* threshold adapted over the most recent bits, attempts frame
  sync on the partial bit stream, and emits one :class:`BitEvent` per
  decoded bit with a latency stamp (stream-clock arrival minus the
  signal-time end of the bit).
* :class:`StreamingKeystrokeDetector` - the Section V-C keylogger,
  emitting :class:`KeystrokeEvent` objects online.

The online emissions are *provisional*: the paper's receiver
deliberately trades latency for accuracy by thresholding each bit
against statistics of bits before and after it, and a true stream has
not seen the "after" yet.  :meth:`StreamingReceiver.finalize` closes
the gap: it re-labels the accumulated envelope through the exact
:class:`~repro.core.decoder.BatchDecoder` logic, and because the
chunked envelope is bit-identical to the batch one (see
:mod:`repro.stream.demod`), the finalised bits are **bit-exact** with a
batch decode of the same capture whenever no chunk was dropped.  Memory
stays bounded relative to the IQ stream: the receiver retains only the
envelope (``hop``-fold smaller than the sample stream) plus
fixed-size carry-over state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from ..core.acquisition import Envelope
from ..core.decoder import BatchDecoder, DecodeResult, DecoderConfig
from ..core.edges import coarse_symbol_frames
from ..core.sync import FrameFormat, locate_preamble
from ..dsp.detection import bimodal_threshold, local_maxima
from ..dsp.filters import edge_kernel
from ..keylog.detector import (
    KeylogDetection,
    KeylogDetectorConfig,
    KeystrokeDetector,
    group_events,
)
from .demod import (
    StreamingConvolver,
    StreamingSTFT,
    advance_envelopes,
    streaming_envelope,
)
from .source import StreamMeta


class _Growing:
    """Append-only float64 array grown by amortised doubling (the
    :meth:`StreamingSTFT.reserve` pattern), so a long stream copies its
    envelope O(log n) times instead of once per push.  :meth:`extend`
    returns a view of the filled prefix; filled values never change."""

    def __init__(self) -> None:
        self._buf = np.empty(0)
        self._size = 0

    def extend(self, new: np.ndarray) -> np.ndarray:
        need = self._size + new.size
        if need > self._buf.size:
            grown = np.empty(max(need, 2 * self._buf.size))
            grown[: self._size] = self._buf[: self._size]
            self._buf = grown
        self._buf[self._size : need] = new
        self._size = need
        return self._buf[:need]


@dataclass(frozen=True)
class BitEvent:
    """One provisionally decoded bit, stamped with its decode latency.

    Attributes
    ----------
    index:
        Position in the provisional bit stream.
    bit:
        Provisional label (rolling threshold; the finalised stream may
        differ - see the module docstring).
    power:
        Average envelope power of the bit interval (Eq. 2 numerator).
    start_frame / end_frame:
        Envelope frame interval of the bit.
    time_s:
        Signal time of the bit start.
    emitted_at_s:
        Stream clock (simulated arrival/processing time) at emission.
    latency_s:
        ``emitted_at_s`` minus the signal time of the bit end: how long
        after the bit finished on the air the receiver produced it.
    payload_index:
        Bit index within the payload once frame sync has locked, else
        None.
    """

    index: int
    bit: int
    power: float
    start_frame: int
    end_frame: int
    time_s: float
    emitted_at_s: float
    latency_s: float
    payload_index: Optional[int] = None


@dataclass(frozen=True)
class KeystrokeEvent:
    """One online keystroke detection with its latency stamp."""

    start: float
    end: float
    emitted_at_s: float
    latency_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class StreamingReceiver:
    """Incremental covert-channel receiver over a chunked IQ stream.

    Parameters
    ----------
    meta:
        Stream metadata (sample rate, tuning).
    vrm_frequency_hz:
        The target's VRM switching frequency (profile-scaled).
    expected_bit_period_s:
        Rough symbol period; when omitted the receiver bootstraps it
        from the envelope autocorrelation once enough frames arrived
        (online events start only after the bootstrap).
    config:
        Receiver parameters, shared with :class:`BatchDecoder` so the
        finalised decode is the batch decode.
    frame_format:
        When given, the receiver attempts online frame sync and stamps
        payload indices on events once the preamble is located.
    rolling_bits:
        Number of recent bit powers the rolling threshold adapts over.
    on_event:
        Optional callback invoked with each :class:`BitEvent`.
    """

    #: Envelope frames required before the symbol-period bootstrap.
    BOOTSTRAP_FRAMES = 2048

    def __init__(
        self,
        meta: StreamMeta,
        vrm_frequency_hz: float,
        expected_bit_period_s: Optional[float] = None,
        config: DecoderConfig = DecoderConfig(),
        frame_format: Optional[FrameFormat] = None,
        rolling_bits: int = 64,
        on_event: Optional[Callable[[BitEvent], None]] = None,
        online: bool = True,
    ):
        if vrm_frequency_hz <= 0:
            raise ValueError("VRM frequency must be positive")
        if rolling_bits < 2:
            raise ValueError("rolling_bits must be >= 2")
        self.meta = meta
        self.vrm_frequency_hz = vrm_frequency_hz
        self.expected_bit_period_s = expected_bit_period_s
        self.config = config
        self.frame_format = frame_format
        self.on_event = on_event
        #: When False, the per-chunk online detectors (edge convolution,
        #: peak scan, rolling-threshold labelling) are skipped entirely;
        #: the receiver only accumulates the envelope and decodes at
        #: :meth:`finalize`.  The finalised bits are identical either
        #: way (they depend only on the envelope).  Fleet-scale
        #: multiplexing runs receivers deferred by default - per-chunk
        #: peak scans across 10k streams are the scaling bottleneck,
        #: and provisional events are only useful on watched streams.
        self.online = bool(online)
        acquisition = config.acquisition_for(
            expected_bit_period_s, meta.sample_rate
        )
        #: Incremental STFT and Eq. 1 bin set (the mux hooks, see
        #: :func:`repro.stream.demod.advance_envelopes`).
        self.sstft, self.bins = streaming_envelope(
            meta, vrm_frequency_hz, acquisition
        )
        self._y = np.empty(0)
        self._times = np.empty(0)
        self._y_acc, self._times_acc = _Growing(), _Growing()
        # Online state.
        self._expected_frames: Optional[float] = None
        if expected_bit_period_s is not None:
            self._expected_frames = (
                expected_bit_period_s * self.sstft.frame_rate
            )
        self._conv: Optional[StreamingConvolver] = None
        self._conv_fed = 0  # envelope frames fed into the convolver
        self._kernel_len = 0
        self._min_sep = 1
        self._resp = np.empty(0)
        self._resp_acc = _Growing()
        self._resp_min = np.inf
        self._resp_max = -np.inf
        self._scan_upto = 0
        self._last_peak = -(10**9)
        self._starts: List[int] = []
        self._recent_powers: deque = deque(maxlen=rolling_bits)
        self._bits: List[int] = []
        self._events: List[BitEvent] = []
        self._synchronized = False
        self._payload_start: Optional[int] = None

    # -- public state -------------------------------------------------------

    @property
    def events(self) -> List[BitEvent]:
        """All events emitted so far (provisional bits)."""
        return list(self._events)

    @property
    def synchronized(self) -> bool:
        return self._synchronized

    @property
    def payload_start_index(self) -> Optional[int]:
        """Provisional-stream index of the first payload bit, if synced."""
        return self._payload_start

    @property
    def n_frames(self) -> int:
        return int(self._y.size)

    @property
    def n_samples(self) -> int:
        return self.sstft.n_samples

    def reserve(self, n_samples: int) -> None:
        """Pre-size the STFT chunk buffer for reallocation-free pushes."""
        self.sstft.reserve(n_samples)

    def envelope(self) -> Envelope:
        """The accumulated Eq. 1 envelope (batch-identical, drop-free)."""
        return Envelope(
            samples=self._y,
            frame_rate=self.sstft.frame_rate,
            times=self._times,
        )

    # -- chunk interface ----------------------------------------------------

    def push_samples(self, samples: np.ndarray, now_s: float) -> List[BitEvent]:
        """Feed one chunk of IQ samples; returns newly emitted events."""
        ((y_new, t_new),) = advance_envelopes([(self.sstft, self.bins, samples)])
        return self.push_envelope(y_new, t_new, now_s)

    def push_envelope(
        self, y_new: np.ndarray, t_new: np.ndarray, now_s: float
    ) -> List[BitEvent]:
        """Feed precomputed Eq. 1 envelope frames (mux batched-DSP path).

        ``y_new``/``t_new`` must be exactly what :meth:`push_samples`
        would have produced for the corresponding samples - the
        multiplexer guarantees this by running this stream's
        :attr:`sstft` through the same :func:`advance_envelopes` call
        as the rest of its group.
        """
        if y_new.size == 0:
            return []
        self._y = self._y_acc.extend(y_new)
        self._times = self._times_acc.extend(t_new)
        if not self.online:
            return []
        return self._advance(now_s)

    def push_gap(self, n_samples: int, now_s: float) -> List[BitEvent]:
        """Account for lost samples by substituting silence.

        Keeps the envelope time base aligned with the signal so decoding
        degrades (the gap decodes as zeros / missed bits) instead of
        shifting every later bit.
        """
        if n_samples <= 0:
            return []
        zeros = np.zeros(int(n_samples), dtype=np.complex64)
        return self.push_samples(zeros, now_s)

    def finalize(self) -> DecodeResult:
        """Batch-grade decode of everything received.

        Runs the accumulated envelope through
        :meth:`BatchDecoder.decode_envelope`; on a drop-free stream the
        result is bit-exact with ``BatchDecoder.decode(capture)`` on the
        monolithic capture.
        """
        if self._y.size == 0:
            raise ValueError(
                "no envelope frames were produced; the stream is shorter "
                "than one acquisition window"
            )
        decoder = BatchDecoder(
            self.vrm_frequency_hz,
            expected_bit_period_s=self.expected_bit_period_s,
            config=self.config,
        )
        return decoder.decode_envelope(self.envelope())

    # -- online machinery ---------------------------------------------------

    def _advance(self, now_s: float) -> List[BitEvent]:
        """Run the online detectors over the newly finalised envelope."""
        if self._expected_frames is None:
            if self._y.size < self.BOOTSTRAP_FRAMES:
                return []
            self._expected_frames = coarse_symbol_frames(
                self.envelope(), min(self._y.size // 2, 8192)
            )
        if self._conv is None:
            edges = self.config.edges
            self._kernel_len = max(
                int(self._expected_frames * edges.kernel_fraction), 2
            )
            self._min_sep = max(
                int(self._expected_frames * edges.min_separation_fraction), 1
            )
            self._conv = StreamingConvolver(edge_kernel(self._kernel_len))
        backlog = self._y[self._conv_fed :]
        self._conv_fed = self._y.size
        resp_new = self._conv.push(backlog)
        if resp_new.size:
            self._resp = self._resp_acc.extend(resp_new)
            self._resp_min = min(self._resp_min, float(resp_new.min()))
            self._resp_max = max(self._resp_max, float(resp_new.max()))
        new_starts = self._detect_starts()
        return self._emit_bits(new_starts, now_s)

    def _detect_starts(self) -> List[int]:
        """Scan the finalised edge response for new bit starts."""
        span = self._resp_max - self._resp_min
        if self._resp.size < 3 or span <= 0:
            return []
        # Overlap the scan window so a peak that sat on the previous
        # boundary is seen once its right context exists; the
        # min-separation check against the last accepted peak keeps the
        # overlap from double-detecting.
        margin = self._min_sep + self._kernel_len
        lo = max(self._scan_upto - margin, 0)
        window = self._resp[lo:]
        peaks = local_maxima(
            window,
            min_distance=self._min_sep,
            min_prominence=self.config.edges.min_prominence_rel * span,
        )
        self._scan_upto = self._resp.size
        half = self._kernel_len // 2
        accepted: List[int] = []
        for p in (lo + peaks).tolist():
            if p - self._last_peak < self._min_sep:
                continue
            if self._resp[p] <= 0:
                continue
            start = p - half
            if start < 0:
                continue
            self._last_peak = p
            accepted.append(start)
        return accepted

    def _emit_bits(self, new_starts: List[int], now_s: float) -> List[BitEvent]:
        """Close the bit intervals the new starts complete."""
        emitted: List[BitEvent] = []
        for start in new_starts:
            if self._starts:
                prev = self._starts[-1]
                emitted.append(self._close_bit(prev, start, now_s))
            self._starts.append(start)
        if emitted and self.frame_format is not None:
            was_synced = self._synchronized
            self._try_sync()
            if self._synchronized and not was_synced:
                # Sync locked on a bit emitted in this very batch:
                # stamp the batch's events retroactively so the first
                # payload bit carries payload_index 0.
                emitted = [
                    replace(e, payload_index=e.index - self._payload_start)
                    if e.index >= self._payload_start
                    else e
                    for e in emitted
                ]
        for event in emitted:
            self._events.append(event)
            if self.on_event is not None:
                self.on_event(event)
        return emitted

    def _close_bit(self, lo: int, hi: int, now_s: float) -> BitEvent:
        """Label one bit interval against the rolling threshold."""
        skip = int((hi - lo) * self.config.skip_fraction)
        body_lo = min(lo + skip, hi - 1) if hi > lo else lo
        body = self._y[body_lo:hi].astype(float)
        power = float(np.mean(body**2)) if body.size else 0.0
        self._recent_powers.append(power)
        recent = np.array(self._recent_powers)
        if recent.size >= 8:
            threshold = bimodal_threshold(recent)
        else:
            threshold = float((recent.min() + recent.max()) / 2)
        bit = int(power > threshold)
        self._bits.append(bit)
        index = len(self._bits) - 1
        end_time = float(self._times[min(hi, self._times.size - 1)])
        payload_index = None
        if self._payload_start is not None and index >= self._payload_start:
            payload_index = index - self._payload_start
        return BitEvent(
            index=index,
            bit=bit,
            power=power,
            start_frame=int(lo),
            end_frame=int(hi),
            time_s=float(self._times[min(lo, self._times.size - 1)]),
            emitted_at_s=float(now_s),
            latency_s=float(now_s) - end_time,
            payload_index=payload_index,
        )

    def _try_sync(self) -> None:
        """Attempt frame sync on the partial provisional bit stream."""
        if self._synchronized:
            return
        fmt = self.frame_format
        bits = np.array(self._bits, dtype=int)
        if bits.size < fmt.header.size:
            return
        nominal = fmt.header.size - fmt.preamble.size
        pos = locate_preamble(
            bits, fmt.preamble, max_errors=2, search_from=max(nominal - 6, 0)
        )
        if pos is None:
            return
        self._synchronized = True
        self._payload_start = pos


class StreamingKeystrokeDetector:
    """Online Section V-C keystroke detector over a chunked stream.

    Emits :class:`KeystrokeEvent` objects as soon as an activity burst
    can no longer merge with a successor (the merge gap has elapsed),
    thresholding each window against a rolling energy history.
    :meth:`finalize` reproduces the batch detector's global-threshold
    pass over the accumulated band energy, so the final event list
    matches :meth:`KeystrokeDetector.detect` on the same capture up to
    the batch path's pre-FFT normalisation (events agree; reported
    energies differ by the capture's RMS scale, which :meth:`finalize`
    divides back out from the running sample-power accumulator).
    """

    def __init__(
        self,
        meta: StreamMeta,
        vrm_frequency_hz: float,
        config: KeylogDetectorConfig = KeylogDetectorConfig(),
        rolling_windows: int = 512,
        on_event: Optional[Callable[[KeystrokeEvent], None]] = None,
        online: bool = True,
    ):
        if vrm_frequency_hz <= 0:
            raise ValueError("VRM frequency must be positive")
        self.meta = meta
        self.vrm_frequency_hz = vrm_frequency_hz
        self.config = config
        self.on_event = on_event
        #: Same contract as :attr:`StreamingReceiver.online`: False
        #: defers all detection to :meth:`finalize` (identical result).
        self.online = bool(online)
        window = max(int(config.window_s * meta.sample_rate), 8)
        #: Same mux hooks as :attr:`StreamingReceiver.sstft`.
        self.sstft = StreamingSTFT(
            meta.sample_rate,
            fft_size=window,
            hop=window,  # non-overlapping, as in the batch detector
            window="rect",
            complex_input=True,
        )
        reference = KeystrokeDetector(vrm_frequency_hz, config)
        self.bins = reference._pmu_bins(meta.as_capture_stub(), window)
        self._window_s = window / meta.sample_rate
        self._energy = np.empty(0)
        self._times = np.empty(0)
        self._energy_acc, self._times_acc = _Growing(), _Growing()
        self._recent: deque = deque(maxlen=rolling_windows)
        self._power_sum = 0.0  # running sum of |x|^2 for RMS recovery
        self._n_samples = 0
        self._events: List[KeystrokeEvent] = []
        self._run_start: Optional[float] = None
        self._run_end: Optional[float] = None

    @property
    def events(self) -> List[KeystrokeEvent]:
        return list(self._events)

    def reserve(self, n_samples: int) -> None:
        """Pre-size the STFT chunk buffer for reallocation-free pushes."""
        self.sstft.reserve(n_samples)

    def account_samples(self, samples: np.ndarray) -> None:
        """Fold a chunk into the RMS accumulator without demodulating.

        The mux batched-DSP path stages the samples into the group STFT
        kernel itself, so only the |x|^2 bookkeeping (needed by
        :meth:`finalize` to recover the batch path's pre-FFT
        normalisation) remains per-stream.
        """
        samples = np.asarray(samples)
        if samples.size:
            self._power_sum += float(np.sum(np.abs(samples) ** 2))
            self._n_samples += samples.size

    def push_samples(
        self, samples: np.ndarray, now_s: float
    ) -> List[KeystrokeEvent]:
        samples = np.asarray(samples)
        self.account_samples(samples)
        ((energy, times),) = advance_envelopes(
            [(self.sstft, self.bins, samples)]
        )
        return self.push_envelope(energy, times, now_s)

    def push_envelope(
        self, energy: np.ndarray, times: np.ndarray, now_s: float
    ) -> List[KeystrokeEvent]:
        """Feed precomputed band-energy windows (mux batched-DSP path).

        The caller must have already routed the raw samples through
        :meth:`account_samples` so :meth:`finalize` can undo the RMS
        scale.
        """
        if energy.size == 0:
            return []
        self._energy = self._energy_acc.extend(energy)
        self._times = self._times_acc.extend(times)
        if not self.online:
            return []
        return self._advance(energy, times, now_s)

    def push_gap(self, n_samples: int, now_s: float) -> List[KeystrokeEvent]:
        if n_samples <= 0:
            return []
        zeros = np.zeros(int(n_samples), dtype=np.complex64)
        return self.push_samples(zeros, now_s)

    def finalize(self) -> KeylogDetection:
        """Batch-equivalent detection over everything received."""
        if self._energy.size == 0:
            raise ValueError(
                "no analysis windows were produced; the stream is shorter "
                "than one detector window"
            )
        rms = (
            float(np.sqrt(self._power_sum / self._n_samples))
            if self._n_samples
            else 1.0
        )
        energy = self._energy / max(rms, 1e-12)
        threshold = bimodal_threshold(energy)
        active = energy > threshold
        events = group_events(active, self._times, self.config)
        return KeylogDetection(
            events=events,
            band_energy=energy,
            window_times=self._times,
            threshold=threshold,
        )

    # -- online machinery ---------------------------------------------------

    def _advance(
        self, energy: np.ndarray, times: np.ndarray, now_s: float
    ) -> List[KeystrokeEvent]:
        emitted: List[KeystrokeEvent] = []
        cfg = self.config
        for e, t in zip(energy, times):
            self._recent.append(float(e))
            recent = np.array(self._recent)
            if recent.size >= 8:
                threshold = bimodal_threshold(recent)
            else:
                threshold = float((recent.min() + recent.max()) / 2)
            active = e > threshold
            edge = t - self._window_s / 2
            if active:
                if self._run_start is None:
                    self._run_start = edge
                self._run_end = t + self._window_s / 2
            elif self._run_start is not None:
                if edge - self._run_end > cfg.merge_gap_s:
                    event = self._close_run(now_s)
                    if event is not None:
                        emitted.append(event)
        for event in emitted:
            self._events.append(event)
            if self.on_event is not None:
                self.on_event(event)
        return emitted

    def flush_events(self, now_s: float) -> List[KeystrokeEvent]:
        """Close a still-open activity run at end of stream."""
        event = self._close_run(now_s)
        if event is None:
            return []
        self._events.append(event)
        if self.on_event is not None:
            self.on_event(event)
        return [event]

    def _close_run(self, now_s: float) -> Optional[KeystrokeEvent]:
        if self._run_start is None:
            return None
        start, end = self._run_start, self._run_end
        self._run_start = self._run_end = None
        if end - start < self.config.min_event_s:
            return None
        return KeystrokeEvent(
            start=float(start),
            end=float(end),
            emitted_at_s=float(now_s),
            latency_s=float(now_s) - float(end),
        )
