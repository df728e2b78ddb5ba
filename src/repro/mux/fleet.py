"""Fleet construction: registered scenarios as multiplexer stream sources.

A fleet is "N receivers listening to M distinct targets": every
registered scenario that renders an IQ capture can serve as a stream
source, and many streams can replay the same capture with independent
arrival jitter - the realistic shape of a monitoring deployment, and
the cheap way to stand up 1k-10k streams without rendering 1k
captures.

:func:`stream_spec_from_scenario` runs a scenario's components just far
enough to obtain the capture and the receiver parameters, handling the
three resource layouts in the registry today:

* attack scenarios (``clockmod-fsk``, ``ichannels-throttle``):
  ``attack.capture`` + ``attack.band`` + ``attack.timing``;
* the streaming covert port (``stream-covert``): ``stream.batch`` +
  ``stream.link``;
* the keylogging port (``keylog``): ``keylog.capture`` + the
  experiment hanging off the components themselves.

:func:`build_multiplexer` then expands a mixed-fleet description into
one :class:`~repro.mux.scheduler.StreamMultiplexer`: one shared pool
sized to the sum of per-stream capacities, one receiver per stream
(covert decode or keystroke detection, per the source scenario), and
per-stream seeded jitter so no two streams' arrivals are phase-locked.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..scenario.dependency import resolve_order
from ..scenario.component import ScenarioContext
from ..scenario.registry import build_components, get_scenario
from ..stream.receiver import StreamingKeystrokeDetector, StreamingReceiver
from ..stream.source import CaptureChunkSource
from ..types import IQCapture
from .pool import ChunkPool
from .scheduler import ShedHook, StreamMultiplexer

#: Capture resource names, in the order the layouts are probed.
_CAPTURE_KEYS = ("attack.capture", "stream.batch", "keylog.capture")


@dataclass(frozen=True)
class StreamSpec:
    """Everything needed to stamp out receivers for one rendered target.

    ``kind`` selects the receiver: ``"covert"`` builds a
    :class:`StreamingReceiver` (bit decode), ``"keylog"`` a
    :class:`StreamingKeystrokeDetector`.
    """

    scenario: str
    seed: int
    kind: str
    capture: IQCapture
    vrm_frequency_hz: float
    expected_bit_period_s: Optional[float] = None
    decoder_config: Optional[object] = None
    frame_format: Optional[object] = None
    detector_config: Optional[object] = None
    tx_bits: Optional[np.ndarray] = None

    def make_receiver(self, online: bool = True):
        """A fresh receiver bound to this target's parameters.

        ``online=False`` builds the receiver in deferred mode (envelope
        accumulation only, detection at finalize - see
        :attr:`StreamingReceiver.online`), the fleet-scale default.
        """
        meta = CaptureChunkSource(self.capture, 1024).meta
        if self.kind == "keylog":
            kwargs = {}
            if self.detector_config is not None:
                kwargs["config"] = self.detector_config
            return StreamingKeystrokeDetector(
                meta, self.vrm_frequency_hz, online=online, **kwargs
            )
        kwargs = {}
        if self.decoder_config is not None:
            kwargs["config"] = self.decoder_config
        if self.frame_format is not None:
            kwargs["frame_format"] = self.frame_format
        return StreamingReceiver(
            meta,
            self.vrm_frequency_hz,
            expected_bit_period_s=self.expected_bit_period_s,
            online=online,
            **kwargs,
        )

    def make_source(
        self, chunk_size: int, jitter_rel: float, jitter_seed: int
    ) -> CaptureChunkSource:
        """A chunked replay of the capture with its own jitter stream."""
        return CaptureChunkSource(
            self.capture,
            chunk_size,
            jitter_rel=jitter_rel,
            rng=np.random.default_rng(jitter_seed),
        )


def stream_spec_from_scenario(
    name: str, seed: Optional[int] = None, quick: bool = True
) -> StreamSpec:
    """Render a registered scenario far enough to stream it.

    A scenario none of whose components declares a capture resource in
    ``provides`` is refused before any component runs.  Otherwise
    components run in dependency order only until a capture resource
    appears (the downstream receiver/scorer components - the expensive
    part of most scenarios - never run); teardown still covers every
    component whose setup ran.
    """
    info = get_scenario(name)
    if seed is None:
        seed = info.spec.default_seed
    components = build_components(name, seed=seed, quick=quick)
    if not any(
        key in component.provides
        for component in components
        for key in _CAPTURE_KEYS
    ):
        raise _unstreamable(name)
    order = resolve_order(components)
    ctx = ScenarioContext(name, seed=seed, quick=quick)
    entered = []
    try:
        for component in order:
            component.setup(ctx)
            entered.append(component)
        for component in order:
            component.run(ctx)
            if any(ctx.has(key) for key in _CAPTURE_KEYS):
                break
    finally:
        for component in reversed(entered):
            component.teardown(ctx)
    return _spec_from_resources(name, int(seed), ctx, components)


def _spec_from_resources(
    name: str, seed: int, ctx: ScenarioContext, components
) -> StreamSpec:
    if ctx.has("attack.capture"):
        band = ctx.get("attack.band")
        timing = ctx.get("attack.timing") if ctx.has("attack.timing") else {}
        tx_bits = ctx.get("attack.bits") if ctx.has("attack.bits") else None
        return StreamSpec(
            scenario=name,
            seed=seed,
            kind="covert",
            capture=ctx.get("attack.capture"),
            vrm_frequency_hz=float(band["vrm_frequency_hz"]),
            expected_bit_period_s=timing.get("bit_period_s"),
            tx_bits=tx_bits,
        )
    if ctx.has("stream.batch"):
        link = ctx.get("stream.link")
        batch = ctx.get("stream.batch")
        bit_period = link.transmitter(
            np.random.default_rng(link.seed)
        ).nominal_bit_duration_s()
        return StreamSpec(
            scenario=name,
            seed=seed,
            kind="covert",
            capture=batch.capture,
            vrm_frequency_hz=float(link.vrm_frequency_hz),
            expected_bit_period_s=bit_period,
            decoder_config=link.decoder_config,
            frame_format=link.frame_format,
            tx_bits=np.asarray(batch.tx_bits),
        )
    if ctx.has("keylog.capture"):
        experiment = next(
            component.experiment
            for component in components
            if hasattr(component, "experiment")
        )
        return StreamSpec(
            scenario=name,
            seed=seed,
            kind="keylog",
            capture=ctx.get("keylog.capture"),
            vrm_frequency_hz=(
                experiment.machine.vrm_frequency_hz
                / experiment.profile.total_freq_divisor
            ),
            detector_config=experiment.detector_config,
        )
    raise _unstreamable(name)


def _unstreamable(name: str) -> ValueError:
    return ValueError(
        f"scenario {name!r} provides none of {_CAPTURE_KEYS}; it cannot "
        "be streamed"
    )


@dataclass(frozen=True)
class FleetStreamSpec:
    """One homogeneous slice of a mixed fleet."""

    scenario: str
    count: int = 1
    seed: Optional[int] = None  # scenario default when None
    priority: int = 0
    #: None sizes the queue to hold two tick batches (drop-free when
    #: service keeps up); an explicit value is taken verbatim.
    capacity: Optional[int] = None
    policy: str = "drop-oldest"
    service_rate_factor: Optional[float] = None  # x capture sample rate
    jitter_rel: float = 0.05
    #: Replay only the first ``duration_s`` seconds of the capture
    #: (None = all of it).  Capacity benchmarks use this to hold
    #: per-stream work constant while scaling the stream count.
    duration_s: Optional[float] = None
    #: Per-chunk online detection (provisional events).  Off by
    #: default: at fleet scale the per-chunk peak scan is the
    #: bottleneck and finalised decodes are identical either way; turn
    #: it on for the streams you actually watch live.
    online: bool = False


def build_multiplexer(
    fleet: Sequence[FleetStreamSpec],
    *,
    chunk_size: int = 512,
    tick_chunks: int = 16,
    tick_s: Optional[float] = None,
    quick: bool = True,
    shed_hook: Optional[ShedHook] = None,
    jitter_seed: int = 1000,
) -> Tuple[StreamMultiplexer, Dict[str, StreamSpec]]:
    """Expand a mixed-fleet description into a ready multiplexer.

    Each distinct ``(scenario, seed)`` pair is rendered once and its
    capture shared (read-only) by every stream of that slice.  Returns
    the multiplexer and a mapping from stream id to the target spec it
    replays (for golden-reference checks and digesting).
    """
    if not fleet:
        raise ValueError("fleet cannot be empty")
    specs: Dict[Tuple[str, Optional[int]], StreamSpec] = {}
    for slice_ in fleet:
        key = (slice_.scenario, slice_.seed)
        if key not in specs:
            specs[key] = stream_spec_from_scenario(
                slice_.scenario, seed=slice_.seed, quick=quick
            )
    if tick_s is None:
        min_fs = min(spec.capture.sample_rate for spec in specs.values())
        tick_s = tick_chunks * chunk_size / min_fs

    def _capacity(slice_: FleetStreamSpec) -> int:
        if slice_.capacity is not None:
            return slice_.capacity
        return 2 * tick_chunks

    n_slabs = max(sum(_capacity(s) * s.count for s in fleet), 1)
    pool = ChunkPool(n_slabs, chunk_size)
    mux = StreamMultiplexer(pool, tick_s=tick_s, shed_hook=shed_hook)
    by_stream: Dict[str, StreamSpec] = {}
    index = 0
    for slice_ in fleet:
        spec = specs[(slice_.scenario, slice_.seed)]
        if slice_.duration_s is not None:
            spec = truncate_spec(spec, slice_.duration_s)
        for _ in range(slice_.count):
            stream_id = f"{slice_.scenario}/{index:05d}"
            source = spec.make_source(
                chunk_size, slice_.jitter_rel, jitter_seed + index
            )
            rate = None
            if slice_.service_rate_factor is not None:
                rate = spec.capture.sample_rate * slice_.service_rate_factor
            mux.add_stream(
                stream_id,
                source,
                spec.make_receiver(online=slice_.online),
                capacity=_capacity(slice_),
                policy=slice_.policy,
                priority=slice_.priority,
                service_rate_sps=rate,
            )
            by_stream[stream_id] = spec
            index += 1
    return mux, by_stream


def truncate_spec(spec: StreamSpec, duration_s: float) -> StreamSpec:
    """The same target, replaying only the capture's first seconds."""
    if not duration_s > 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    capture = spec.capture
    n = min(int(duration_s * capture.sample_rate), capture.samples.size)
    if n >= capture.samples.size:
        return spec
    from dataclasses import replace

    return replace(
        spec,
        capture=IQCapture(
            samples=capture.samples[:n],
            sample_rate=capture.sample_rate,
            center_frequency=capture.center_frequency,
        ),
    )


def bits_digest(bits) -> str:
    """Short sha256 of a bit vector (the repo's record-digest idiom)."""
    data = np.asarray(bits, dtype=np.uint8).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _receiver_digest(spec: StreamSpec, receiver) -> str:
    """Digest one finalised receiver: bits (covert) or events (keylog)."""
    if spec.kind == "keylog":
        detection = receiver.finalize()
        payload = np.array(
            [(e.start, e.end) for e in detection.events], dtype=float
        )
        return hashlib.sha256(payload.tobytes()).hexdigest()[:16]
    return bits_digest(receiver.finalize().bits)


def finalized_digests(
    mux: StreamMultiplexer, by_stream: Dict[str, StreamSpec]
) -> Dict[str, str]:
    """Finalize every stream and digest its decode.

    Covert streams digest the finalised bit vector; keylog streams
    digest the detected event boundaries.  On a drop-free fleet these
    digests are the acceptance surface: they must match a per-stream
    :class:`StreamingReceiver` replay of the same sources exactly.
    """
    return {
        stream_id: _receiver_digest(
            spec, mux.state(stream_id).mux.receiver
        )
        for stream_id, spec in by_stream.items()
    }


def golden_digest(spec: StreamSpec, chunk_size: int = 512) -> str:
    """The per-stream reference digest for one target.

    Replays the capture through a lone online receiver - the shipped
    pre-mux path, no pool, no batching.  Finalised decodes depend only
    on the accumulated envelope, never on arrival times, so one golden
    digest covers every jittered replay of the same capture.
    """
    receiver = spec.make_receiver(online=True)
    for chunk in spec.make_source(chunk_size, 0.0, 0):
        receiver.push_samples(chunk.samples, chunk.arrival_s)
    return _receiver_digest(spec, receiver)
