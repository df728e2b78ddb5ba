"""Signal-quality metrics: a registry plus taps at every chain stage.

PR 1 fixed two silent physics bugs (dropped fractional-tail charge,
dropped final-sample bursts) that no test caught because nothing
recorded what the analog chain actually produced.  This module closes
that gap: each stage reports a small set of physically meaningful
numbers - activity duty cycle, bursts per switching period, phase-shed
fraction, emission RMS, post-propagation SNR, SDR clipping rate, the
receiver's Y[n] bimodal contrast and edge count - into an ambient
registry.  The numbers feed three consumers:

* experiment manifests (:mod:`repro.obs.manifest`), so every table row
  is accompanied by the signal conditions that produced it;
* the baseline regression gate (:mod:`repro.obs.baseline`), which turns
  any drift in these numbers into a red ``make regress``;
* cross-channel comparison against the related current/frequency
  side channels in PAPERS.md, which report the same kinds of figures.

Like the span tracer, the registry lives in a ``ContextVar``;
every tap is one ``get`` + ``None`` check when no registry is active,
so the chain costs nothing extra in un-instrumented runs.  Worker
processes snapshot their registry and the pool merges it into the
parent's (:meth:`MetricsRegistry.merge_snapshot`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional

import numpy as np

_registry: ContextVar[Optional["MetricsRegistry"]] = ContextVar(
    "repro_metrics", default=None
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins level."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Running summary of observed values: count/mean/min/max.

    Stored as mergeable moments rather than buckets - enough for the
    regression gate and manifests, and exact under worker merging.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors ----------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            inst = self._counters[name] = Counter()
            return inst

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            inst = self._gauges[name] = Gauge()
            return inst

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            inst = self._histograms[name] = Histogram()
            return inst

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """Typed, JSON-friendly view of every instrument."""
        out: Dict[str, dict] = {}
        for name, c in self._counters.items():
            out[name] = {"type": "counter", "value": c.value}
        for name, g in self._gauges.items():
            out[name] = {"type": "gauge", "value": g.value}
        for name, h in self._histograms.items():
            out[name] = {
                "type": "histogram",
                "count": h.count,
                "total": h.total,
                "min": h.min if h.count else None,
                "max": h.max if h.count else None,
                "mean": h.mean,
            }
        return out

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> None:
        """Fold a worker's snapshot into this registry.

        Counters and histograms combine exactly; a gauge takes the
        worker's value (last write wins, as within one process).
        """
        for name, entry in snapshot.items():
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name).inc(entry["value"])
            elif kind == "gauge":
                if entry["value"] is not None:
                    self.gauge(name).set(entry["value"])
            elif kind == "histogram":
                h = self.histogram(name)
                if entry["count"]:
                    h.count += entry["count"]
                    h.total += entry["total"]
                    h.min = min(h.min, entry["min"])
                    h.max = max(h.max, entry["max"])


def flatten(snapshot: Dict[str, dict]) -> Dict[str, float]:
    """Reduce a snapshot to scalar ``{metric: value}`` pairs.

    Counters/gauges keep their name; histograms expand to
    ``name.count`` / ``name.mean`` / ``name.min`` / ``name.max``.  This
    is the form baselines are recorded and compared in.
    """
    flat: Dict[str, float] = {}
    for name, entry in sorted(snapshot.items()):
        kind = entry.get("type")
        if kind in ("counter", "gauge"):
            if entry["value"] is not None:
                flat[name] = float(entry["value"])
        elif kind == "histogram" and entry["count"]:
            flat[f"{name}.count"] = float(entry["count"])
            flat[f"{name}.mean"] = float(entry["mean"])
            flat[f"{name}.min"] = float(entry["min"])
            flat[f"{name}.max"] = float(entry["max"])
    return flat


def get_metrics() -> Optional[MetricsRegistry]:
    """The active registry, or None when metrics are off."""
    return _registry.get()


def metrics_active() -> bool:
    return _registry.get() is not None


@contextmanager
def metrics_scope() -> Iterator[MetricsRegistry]:
    """Collect metrics recorded anywhere inside this scope."""
    registry = MetricsRegistry()
    token = _registry.set(registry)
    try:
        yield registry
    finally:
        _registry.reset(token)


# ---------------------------------------------------------------------------
# Chain-stage taps.  Each is called from the signal path with the
# stage's natural intermediate and is a no-op unless a registry is
# active, so the uninstrumented chain pays one ContextVar read per tap.


def tap_activity(activity) -> None:
    """Software side: fraction of the trace that is (level-weighted) busy."""
    reg = _registry.get()
    if reg is None:
        return
    duration = max(activity.duration, 1e-30)
    reg.histogram("chain.activity.duty_cycle").observe(
        activity.busy_time / duration
    )


def tap_bursts(bursts) -> None:
    """VRM side: burst rate and how hard phase shedding is working."""
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("chain.vrm.bursts").inc(bursts.count)
    periods = bursts.duration / max(bursts.switching_period, 1e-30)
    if periods > 0:
        per_period = bursts.count / periods
        reg.histogram("chain.vrm.bursts_per_period").observe(per_period)
        reg.histogram("chain.vrm.shed_fraction").observe(
            max(1.0 - per_period, 0.0)
        )


def tap_emission(wave: np.ndarray) -> None:
    """Emitted waveform energy (the quantity PR 1's bugs silently lost)."""
    reg = _registry.get()
    if reg is None:
        return
    rms = float(np.sqrt(np.mean(np.square(wave)))) if wave.size else 0.0
    reg.histogram("chain.emission.rms").observe(rms)


def tap_propagation(emission: np.ndarray, received: np.ndarray, scenario) -> None:
    """Post-propagation SNR: scaled emission vs. everything added to it."""
    reg = _registry.get()
    if reg is None:
        return
    signal = emission * scenario.link_gain()
    noise = received - signal
    p_sig = float(np.mean(np.square(signal))) if signal.size else 0.0
    p_noise = float(np.mean(np.square(noise))) if noise.size else 0.0
    snr_db = 10.0 * math.log10(max(p_sig, 1e-30) / max(p_noise, 1e-30))
    reg.histogram("chain.propagation.snr_db").observe(snr_db)


def tap_capture(capture, adc_bits: int) -> None:
    """SDR side: fraction of IQ samples pinned at the ADC rails."""
    reg = _registry.get()
    if reg is None:
        return
    samples = capture.samples
    if samples.size == 0:
        reg.histogram("chain.sdr.clip_rate").observe(0.0)
        return
    levels = 2 ** (adc_bits - 1)
    top = (levels - 1) / levels
    re, im = samples.real, samples.imag
    clipped = (re >= top) | (re <= -1.0) | (im >= top) | (im <= -1.0)
    reg.histogram("chain.sdr.clip_rate").observe(
        float(np.count_nonzero(clipped)) / samples.size
    )


def tap_receiver(powers: np.ndarray, n_edges: int) -> None:
    """Receiver side: Y[n] bimodal contrast and detected edge count.

    Contrast is ``(hi - lo) / (hi + lo)`` of the per-bit average powers
    split at their bimodal threshold - near 1 for a clean on-off-keyed
    envelope, near 0 when the two levels have collapsed.
    """
    reg = _registry.get()
    if reg is None:
        return
    reg.histogram("rx.edges.count").observe(float(n_edges))
    powers = np.asarray(powers, dtype=float)
    if powers.size < 2:
        return
    from ..dsp.detection import bimodal_threshold

    thr = bimodal_threshold(powers)
    hi = powers[powers > thr]
    lo = powers[powers <= thr]
    if hi.size == 0 or lo.size == 0:
        contrast = 0.0
    else:
        mean_hi, mean_lo = float(hi.mean()), float(lo.mean())
        contrast = (mean_hi - mean_lo) / max(mean_hi + mean_lo, 1e-30)
    reg.histogram("rx.envelope.bimodal_contrast").observe(contrast)


# ---------------------------------------------------------------------------
# Streaming-receiver taps (repro.stream).  Same contract as the chain
# taps: one ContextVar read and out when no registry is active.


def tap_stream_chunk(lag_s: float, occupancy: float) -> None:
    """One serviced chunk: its processing lag and the buffer fill level."""
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("stream.chunks").inc()
    reg.histogram("stream.lag_s").observe(lag_s)
    reg.histogram("stream.buffer.occupancy").observe(occupancy)


def tap_stream_drop(n_chunks: int, n_samples: int) -> None:
    """Chunks evicted by the ring buffer (drop-oldest overflow)."""
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("stream.dropped.chunks").inc(n_chunks)
    reg.counter("stream.dropped.samples").inc(n_samples)


def tap_stream_degraded(n_chunks: int, n_samples: int) -> None:
    """Chunks shed at ingest by graceful degradation (decimation)."""
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("stream.degraded.chunks").inc(n_chunks)
    reg.counter("stream.degraded.samples").inc(n_samples)


def tap_stream_event(latency_s: float) -> None:
    """One online receiver event and its decode latency."""
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("stream.events").inc()
    reg.histogram("stream.event_latency_s").observe(latency_s)


def tap_stream_summary(events_per_s: float, high_watermark: int) -> None:
    """End-of-run levels: event rate and peak buffer occupancy."""
    reg = _registry.get()
    if reg is None:
        return
    reg.gauge("stream.events_per_s").set(events_per_s)
    reg.gauge("stream.buffer.high_watermark").set(float(high_watermark))


# ---------------------------------------------------------------------------
# Fleet-multiplexer taps (repro.mux).  Aggregate, not per-stream: a
# 10k-stream fleet must not mint 10k metric names, so the mux reports
# fleet-wide counters/histograms and leaves per-stream detail to
# MuxStreamStats (manifests) and the interactive inspect API.


def tap_mux_tick(n_streams: int, n_chunks: int, n_samples: int) -> None:
    """One scheduler tick: streams serviced, chunks and samples moved."""
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("mux.ticks").inc()
    reg.counter("mux.chunks").inc(n_chunks)
    reg.counter("mux.samples").inc(n_samples)
    reg.histogram("mux.tick.streams").observe(float(n_streams))


def tap_mux_group(n_streams: int, n_frames: int, seconds: float) -> None:
    """One cross-stream batched DSP kernel call (one config group)."""
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("mux.group.calls").inc()
    reg.histogram("mux.group.streams").observe(float(n_streams))
    reg.histogram("mux.group.frames").observe(float(n_frames))
    reg.histogram("mux.group.seconds").observe(seconds)


def tap_mux_shed(n_chunks: int, n_samples: int) -> None:
    """Chunks shed at ingest (scheduler backpressure / injection)."""
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("mux.shed.chunks").inc(n_chunks)
    reg.counter("mux.shed.samples").inc(n_samples)


def tap_mux_drop(n_chunks: int, n_samples: int) -> None:
    """Chunks evicted from pool-backed stream queues (drop-oldest)."""
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("mux.dropped.chunks").inc(n_chunks)
    reg.counter("mux.dropped.samples").inc(n_samples)


def tap_mux_summary(
    n_streams: int,
    events: int,
    shed_fraction: float,
    slab_high_watermark: int,
) -> None:
    """End-of-run fleet levels."""
    reg = _registry.get()
    if reg is None:
        return
    reg.gauge("mux.streams").set(float(n_streams))
    reg.gauge("mux.events").set(float(events))
    reg.gauge("mux.shed_fraction").set(shed_fraction)
    reg.gauge("mux.pool.high_watermark").set(float(slab_high_watermark))


# ---------------------------------------------------------------------------
# Sweep-engine tap (repro.sweep)


def tap_sweep(stats) -> None:
    """One finished sweep: how much chain work the key-DAG plan saved.

    ``dedup_ratio`` is the naive-to-planned stage-run ratio (1.0 means
    nothing was shared); ``stages_saved`` the absolute count of chain
    stages the plan avoided recomputing.
    """
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("sweep.runs").inc()
    reg.counter("sweep.trials").inc(float(stats.get("trials", 0.0)))
    reg.counter("sweep.trials.executed").inc(float(stats.get("executed", 0.0)))
    reg.counter("sweep.trials.resumed").inc(float(stats.get("resumed", 0.0)))
    reg.counter("sweep.stages_saved").inc(
        float(stats.get("stages_saved", 0.0))
    )
    reg.gauge("sweep.dedup_ratio").set(float(stats.get("sharing_factor", 1.0)))
    reg.gauge("sweep.warm_groups").set(float(stats.get("warm_groups", 0.0)))


# ---------------------------------------------------------------------------
# Batch-path taps (repro.batch)


def tap_batch_kernel(kernel: str, batch: int, bytes_moved: int) -> None:
    """One trial-major kernel invocation: how much it fused and moved."""
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("batch.kernels").inc()
    reg.counter(f"batch.kernel.{kernel}.calls").inc()
    reg.histogram(f"batch.kernel.{kernel}.size").observe(float(batch))
    reg.counter(f"batch.kernel.{kernel}.bytes").inc(float(bytes_moved))


def tap_batch_run(trials: int, groups: int) -> None:
    """One batched sweep pass: trials routed and unique chain groups."""
    reg = _registry.get()
    if reg is None:
        return
    reg.counter("batch.runs").inc()
    reg.counter("batch.trials").inc(float(trials))
    reg.counter("batch.groups").inc(float(groups))
