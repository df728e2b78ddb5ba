"""The analog chain resolver: one implementation for one trial or N.

:func:`render_captures_batched` is the only code that computes the
chain's stages (PMU -> VRM -> dither -> emission -> propagation -> SDR);
:func:`repro.chain.render_capture` and :func:`repro.chain.render_emission`
call it with a batch of one.  It walks the layered key chain (power ->
burst -> dither -> emit -> capture) *across the whole batch*: every
distinct stage node is probed once, the missing nodes of each layer are
computed together - grouped through the trial-major kernels of
:mod:`repro.batch.kernels` - and members share the node's value and RNG
exit state exactly as a cache hit would (deduplication is a virtual
hit: same key, same bytes, same exit state).

Stampede control: each layer's pending nodes are computed under their
per-key cache locks, taken in sorted key order.  After taking a lock
the node is re-probed; a value another process published meanwhile is
served (RNG exit state restored, ``cache.stampede_avoided`` traced)
instead of recomputed.  With a memory-only cache the locks are no-ops.

Observability follows one rule.  A node emits its stage span (and its
metric taps) when it is computed, and one ``stage`` hit event when it
is served from the cache.  A trial whose capture was not computed on
its behalf - a cache hit, or a node another trial in the batch
computed - taps its activity and capture once.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..chain import (
    _stage_hit,
    _stage_span,
    tuned_frequency_hz,
)
from ..obs.metrics import (
    get_metrics,
    tap_activity,
    tap_bursts,
    tap_capture,
    tap_emission,
    tap_propagation,
)
from ..obs.trace import key_prefix, span, trace_event, tracing_active
from ..power.pmu import PMU
from ..sdr.frontend import downconvert
from ..sdr.rtlsdr import RtlSdrV3
from ..types import IQCapture
from ..vrm.buck import BuckConverter
from ..vrm.emission import EmissionModel
from ..vrm.vid import VidInterface
from .kernels import batched_bincount, batched_convolve_full


@dataclass
class ChainRequest:
    """One trial's chain inputs, with the RNG as a state (not a live
    generator), so a request is inert until its node computes.

    ``scenario`` is None (and ``keys.capture`` too) for an
    emission-only request, which resolves to the emitted waveform.
    """

    machine: object
    activity: object
    scenario: object
    profile: object
    allow_c_states: bool
    allow_p_states: bool
    vrm_dithering: object
    keys: object  # repro.chain.ChainKeys
    entry_state: dict


@dataclass
class ResolvedCapture:
    """What one request gets back: the capture (or, for an
    emission-only request, the waveform in ``emission``), where it came
    from (``cache`` / ``computed``), and the chain's RNG exit state."""

    capture: Optional[IQCapture]
    key: Optional[str]
    source: str
    exit_state: dict
    emission: Optional[np.ndarray] = None


class _Node:
    """One distinct stage node during batch resolution."""

    __slots__ = ("key", "req", "source", "value", "exit_state")

    def __init__(self, key, req):
        self.key = key
        self.req = req
        self.source: Optional[str] = None  # "cache" | "computed"
        self.value = None
        self.exit_state: Optional[dict] = None


def _generator(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def _serve(node: _Node, hit, stage_name: str) -> None:
    """Take a cached (value, exit state) and trace the hit."""
    node.value, node.exit_state = hit
    node.source = "cache"
    if tracing_active():
        _stage_hit(stage_name, node.key, _generator(node.exit_state))


def render_captures_batched(
    requests: Sequence[ChainRequest],
) -> List[ResolvedCapture]:
    """Resolve every request's capture (or emission), computing each
    distinct stage node exactly once and batching each layer's misses
    through the trial-major kernels.

    Requests sharing a stage key must (by key construction) agree on
    that stage's inputs and RNG entry state.
    """
    from ..exec.cache import get_chain_cache

    cache = get_chain_cache()
    with span("batch.chain", {"requests": len(requests)}):
        return _resolve(requests, cache)


def _resolve(requests, cache):
    # ---- layer tables: one node per distinct key ----------------------
    captures: Dict[str, _Node] = {}
    emissions: Dict[str, _Node] = {}
    dithers: Dict[str, _Node] = {}
    bursts: Dict[str, _Node] = {}

    def want(table, stage_name, key, req) -> bool:
        """Register the node; True when it is already resolved."""
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key, req)
            hit = cache.get(key) if cache is not None else None
            if hit is not None:
                _serve(node, hit, stage_name)
        return node.source is not None

    # ---- probe top-down: a hit covers every layer beneath it ----------
    for req in requests:
        keys = req.keys
        if keys.capture is not None and want(captures, "sdr", keys.capture, req):
            continue
        if want(emissions, "emission", keys.emit, req):
            continue
        if req.vrm_dithering is not None and want(
            dithers, "dither", keys.dither, req
        ):
            continue
        want(bursts, "vrm", keys.burst, req)

    # ---- compute bottom-up, one locked layer at a time ----------------
    layers = (
        ("vrm", bursts, lambda nodes: _compute_bursts(nodes, cache)),
        ("dither", dithers, lambda nodes: _compute_dithers(nodes, bursts, cache)),
        (
            "emission",
            emissions,
            lambda nodes: _compute_emissions(nodes, dithers, bursts, cache),
        ),
        ("sdr", captures, lambda nodes: _compute_captures(nodes, emissions, cache)),
    )
    for stage_name, table, compute in layers:
        _compute_layer(cache, stage_name, table, compute)

    resolved = []
    for req in requests:
        emission_only = req.keys.capture is None
        if emission_only:
            node = emissions[req.keys.emit]
            tap_activity(req.activity)
        else:
            node = captures[req.keys.capture]
            if node.source != "computed" or node.req is not req:
                tap_activity(req.activity)
                tap_capture(node.value, adc_bits=8)
        resolved.append(
            ResolvedCapture(
                capture=None if emission_only else node.value,
                key=node.key if cache is not None else None,
                source=node.source,
                exit_state=node.exit_state,
                emission=node.value if emission_only else None,
            )
        )
    return resolved


def _compute_layer(cache, stage_name, table, compute) -> None:
    """Compute one layer's pending nodes under their stampede locks,
    serving any node a concurrent process published meanwhile, then
    publish the rest before releasing the locks."""
    pending = [n for n in table.values() if n.source is None]
    if not pending:
        return
    with ExitStack() as stack:
        if cache is not None:
            for node in sorted(pending, key=lambda n: n.key):
                if stack.enter_context(cache.lock(node.key)):
                    hit = cache.reprobe(node.key)
                    if hit is not None:
                        _stampede_avoided(node, hit, stage_name)
            pending = [n for n in pending if n.source is None]
        compute(pending)
        for node in pending:
            node.source = "computed"
            if cache is not None:
                cache.put(node.key, (node.value, node.exit_state))


def _stampede_avoided(node: _Node, hit, stage_name: str) -> None:
    trace_event(
        "cache.stampede_avoided", key=key_prefix(node.key), stage=stage_name
    )
    registry = get_metrics()
    if registry is not None:
        registry.counter("cache.stampede_avoided").inc()
    _serve(node, hit, stage_name)


def _compute_bursts(nodes, cache) -> None:
    """PMU + VRM per node: power-state trace (itself cached under the
    power key), then the raw burst train."""
    table_memo: Dict[tuple, object] = {}

    def power_table(machine, allow_c, allow_p):
        memo_key = (id(machine), allow_c, allow_p)
        if memo_key not in table_memo:
            table_memo[memo_key] = machine.power_table(
                allow_c=allow_c, allow_p=allow_p
            )
        return table_memo[memo_key]

    vid = VidInterface()
    for node in nodes:
        req = node.req
        rng = _generator(req.entry_state)
        k_power = req.keys.power if cache is not None else None
        k_burst = node.key if cache is not None else None
        power_hit = cache.get(req.keys.power) if cache is not None else None
        if power_hit is not None:
            power_trace, state_after = power_hit
            rng.bit_generator.state = state_after
            _stage_hit("pmu", req.keys.power, rng)
        else:
            with _stage_span("pmu", k_power, rng):
                table = power_table(
                    req.machine, req.allow_c_states, req.allow_p_states
                )
                pmu = PMU(
                    table,
                    governor=req.machine.governor(table, req.profile),
                    rng=rng,
                )
                power_trace = pmu.run(req.activity)
            if cache is not None:
                cache.put(
                    req.keys.power, (power_trace, rng.bit_generator.state)
                )
        with _stage_span("vrm", k_burst, rng):
            table = power_table(
                req.machine, req.allow_c_states, req.allow_p_states
            )
            load = power_trace.current_draw(table.current_a)
            requested_v = power_trace.voltage(table.voltage_v)
            realized_v = vid.apply(requested_v)
            buck = BuckConverter(req.machine.buck_design(req.profile), rng=rng)
            node.value = buck.simulate(load, realized_v)
        node.exit_state = rng.bit_generator.state


def _compute_dithers(nodes, bursts, cache) -> None:
    """The Section VI spread-spectrum countermeasure over each raw train."""
    for node in nodes:
        req = node.req
        burst_node = bursts[req.keys.burst]
        rng = _generator(burst_node.exit_state)
        k_dither = node.key if cache is not None else None
        with _stage_span("dither", k_dither, rng):
            node.value = req.vrm_dithering.apply(
                burst_node.value, rng, time_scale=req.profile.time_scale
            )
        node.exit_state = rng.bit_generator.state


def _compute_emissions(nodes, dithers, bursts, cache) -> None:
    """Synthesize every pending emission node: deposits per node (with
    the ``emission`` span and taps), then one grouped bincount per wave
    length and one grouped convolution per pulse kernel."""
    deposit_groups: Dict[int, list] = {}  # wave length -> [(node, idx, dep)]
    convolve_groups: Dict[tuple, list] = {}  # (len, kernel) -> [node]
    kernels: Dict[tuple, np.ndarray] = {}
    waves: Dict[str, np.ndarray] = {}
    for node in nodes:
        req = node.req
        if req.vrm_dithering is not None:
            lower = dithers[req.keys.dither]
        else:
            lower = bursts[req.keys.burst]
        # Synthesis draws nothing: the exit state is the entry state.
        node.exit_state = lower.exit_state
        train = lower.value
        emitter = EmissionModel(field_gain=req.machine.emission_strength)
        sample_rate = req.profile.rf_sample_rate_hz
        if sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        k_emit = node.key if cache is not None else None
        with span(
            "emission",
            {
                "cache": "off" if k_emit is None else "miss",
                "key": key_prefix(k_emit),
            },
        ):
            tap_bursts(train)
            n_samples = int(round(train.duration * sample_rate))
            length = max(n_samples, 1)
            if train.count == 0:
                waves[node.key] = np.zeros(length)
                continue
            width_s = emitter.pulse_width_fraction * train.switching_period
            nominal_v = max(np.median(train.voltages), 1e-9)
            weights = (
                emitter.field_gain
                * (train.charges / width_s)
                * (train.voltages / nominal_v)
            )
            positions = train.times * sample_rate
            base = np.floor(positions).astype(np.int64)
            frac = positions - base
            interior = (base >= 0) & (base < n_samples - 1)
            last = base == n_samples - 1
            indices = np.concatenate(
                (base[interior], base[interior] + 1, base[last])
            )
            deposits = np.concatenate(
                (
                    weights[interior] * (1.0 - frac[interior]),
                    weights[interior] * frac[interior],
                    weights[last],
                )
            )
            deposit_groups.setdefault(length, []).append(
                (node, indices, deposits)
            )
            kernel = emitter.pulse_kernel(
                sample_rate, train.switching_period
            )
            if kernel.size > 1:
                group_key = (length, kernel.tobytes())
                kernels[group_key] = kernel
                convolve_groups.setdefault(group_key, []).append(node)
            # kernel.size == 1: the deposited wave is final.

    # Grouped scatter: one bincount per wave length.
    for length, members in deposit_groups.items():
        stack = batched_bincount(
            [idx for _, idx, _ in members],
            [dep for _, _, dep in members],
            length,
        )
        for row, (node, _, _) in zip(stack, members):
            waves[node.key] = row

    # Grouped pulse shaping: one broadcast convolution per kernel.
    for group_key, members in convolve_groups.items():
        length, _ = group_key
        stack = np.stack([waves[node.key] for node in members])
        shaped = batched_convolve_full(stack, kernels[group_key], length)
        for row, node in zip(shaped, members):
            waves[node.key] = row

    for node in nodes:
        node.value = waves[node.key]
        tap_emission(node.value)


def _compute_captures(nodes, emissions, cache) -> None:
    """Digitise every pending capture node: noise and propagation per
    node (sequential RNG), then one :func:`downconvert` per group of
    rows sharing a local oscillator, then the AGC and quantiser per
    node."""
    groups: Dict[tuple, list] = {}  # downconvert params -> [(node, row)]
    rngs: Dict[str, np.random.Generator] = {}
    sdrs: Dict[str, RtlSdrV3] = {}
    for node in nodes:
        req = node.req
        emit_node = emissions[req.keys.emit]
        rng = _generator(emit_node.exit_state)
        tap_activity(req.activity)
        wave = emit_node.value
        k_capture = node.key if cache is not None else None
        rf_rate = req.profile.rf_sample_rate_hz
        with _stage_span("propagation", k_capture, rng):
            antenna_v = req.scenario.apply(wave, rf_rate, rng)
            tap_propagation(wave, antenna_v, req.scenario)
        sdr = RtlSdrV3(sample_rate=req.profile.sdr_sample_rate_hz)
        factor = sdr.decimation_factor(rf_rate)
        center = tuned_frequency_hz(req.machine, req.profile)
        with _stage_span("sdr", k_capture, rng):
            # The SDR's only draw; mixing, decimation and the AGC are
            # deterministic, so deferring them into the grouped kernels
            # leaves this span's RNG digest unchanged.
            noisy = antenna_v + sdr.noise_floor * rng.standard_normal(
                antenna_v.size
            )
        offset_hz = center * sdr.ppm_error * 1e-6
        rngs[node.key] = rng
        sdrs[node.key] = sdr
        groups.setdefault(
            (noisy.size, rf_rate, center, offset_hz, factor), []
        ).append((node, noisy))

    for (_, rf_rate, center, offset_hz, factor), members in groups.items():
        baseband = downconvert(
            [row for _, row in members], rf_rate, center, offset_hz, factor
        )
        for row, (node, _) in zip(baseband, members):
            sdr = sdrs[node.key]
            rng = rngs[node.key]
            quantised = sdr._agc_and_quantise(row)
            node.value = IQCapture(
                samples=quantised.astype(np.complex64),
                sample_rate=sdr.sample_rate,
                center_frequency=center,
            )
            node.exit_state = rng.bit_generator.state
            tap_capture(node.value, sdr.bits)
