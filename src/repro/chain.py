"""The shared analog signal chain: activity trace -> SDR capture.

Both applications (covert channel, keylogging) drive the same physics:

    activity -> PMU (power states) -> VRM (bursts) -> emission
             -> propagation/noise -> antenna -> SDR -> IQ capture

:func:`render_capture` and :func:`render_emission` run that chain for
one trial as a *batch of one*: they name the trial's key chain, hand a
single :class:`~repro.batch.chain.ChainRequest` to
:func:`repro.batch.chain.render_captures_batched` - the one resolver
that computes the stages - and leave the caller's generator in the
chain's exit state.  This module owns what every caller shares: the
SDR tuning helpers, the cache-key chain, and the stage trace helpers.

Caching
-------
The digital and VRM stages are pure functions of (machine, activity,
profile, BIOS flags, dithering config) *and the RNG state on entry*, so
their outputs are content-addressed in :mod:`repro.exec.cache` under a
layered key chain::

    k_power   = H(machine, activity, profile, flags, rng_state)
    k_burst   = H(k_power)
    k_dither  = H(k_burst, dithering)     # only when dithering is on
    k_emit    = H(k_dither)
    k_capture = H(k_emit, scenario)

A sweep that varies only the receiver (decoder/detector config) hits
``k_capture`` and skips the whole analog chain; one that varies only
the propagation scenario hits ``k_emit`` and skips the PMU + VRM; one
that varies only the dithering hits ``k_burst`` and re-runs just the
dither + synthesis.
Every cached value stores the RNG state on *exit* from its stage, which
a hit restores, so cached and uncached runs are bit-identical.

:func:`capture_chain_keys` names a trial's whole key chain without
executing anything; :mod:`repro.sweep` uses it to group a parameter
grid by shared prefix and compute every shared stage exactly once.

Observability
-------------
When tracing is on (:mod:`repro.obs.trace`), every computed stage
emits one span carrying its cache key prefix, miss/off disposition,
duration and an RNG-state digest, and every cache hit one ``stage``
event; when a metrics registry is active (:mod:`repro.obs.metrics`),
computed stages also report signal-quality figures (duty cycle, burst
rate, shed fraction, emission RMS, SNR, clipping).  Both are single
``ContextVar`` reads when off.  Under a warm cache the stages a hit
skips do not tap (their intermediates are never materialised); the
baseline regression gate therefore runs with the cache disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .em.environment import Scenario
from .exec.cache import CHAIN_SCHEMA, fingerprint
from .obs.trace import (
    key_prefix,
    rng_digest,
    span,
    trace_event,
    tracing_active,
)
from .params import SimProfile
from .systems.laptops import Machine
from .types import ActivityTrace, IQCapture


def tuned_frequency_hz(machine: Machine, profile: SimProfile) -> float:
    """SDR tuning for a machine: midway between f0 and its first harmonic
    (profile-scaled), so both Eq. 1 components are in band."""
    return 1.5 * machine.vrm_frequency_hz / profile.total_freq_divisor


def paper_tuned_frequency_hz(machine: Machine) -> float:
    """Paper-scale tuning frequency (for profile-invariant link physics)."""
    return 1.5 * machine.vrm_frequency_hz


# ---------------------------------------------------------------------------
# Cache keys


def _activity_fingerprint(activity: ActivityTrace):
    """Activity content as arrays (fast to hash even for long traces)."""
    return (
        np.array([iv.start for iv in activity.intervals]),
        np.array([iv.end for iv in activity.intervals]),
        np.array([iv.level for iv in activity.intervals]),
        activity.duration,
    )


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def power_chain_key(
    machine: Machine,
    activity: ActivityTrace,
    profile: SimProfile,
    rng: np.random.Generator,
    allow_c_states: bool,
    allow_p_states: bool,
) -> str:
    """Content address of the power-state stage (and chain prefix root)."""
    return fingerprint(
        CHAIN_SCHEMA,
        "power",
        machine,
        _activity_fingerprint(activity),
        profile,
        allow_c_states,
        allow_p_states,
        _rng_state(rng),
    )


def _chain_keys(
    machine: Machine,
    activity: ActivityTrace,
    profile: SimProfile,
    rng: np.random.Generator,
    allow_c_states: bool,
    allow_p_states: bool,
    vrm_dithering,
):
    """The layered (power, burst, dither, emit) key chain for one run."""
    k_power = power_chain_key(
        machine, activity, profile, rng, allow_c_states, allow_p_states
    )
    k_burst = fingerprint(CHAIN_SCHEMA, "burst", k_power)
    if vrm_dithering is not None:
        k_dither = fingerprint(CHAIN_SCHEMA, "dither", k_burst, vrm_dithering)
    else:
        k_dither = k_burst
    k_emit = fingerprint(CHAIN_SCHEMA, "emit", k_dither)
    return k_power, k_burst, k_dither, k_emit


@dataclass(frozen=True)
class ChainKeys:
    """The layered cache-key chain of one trial, computed without
    running any stage.

    ``capture`` is None when no scenario was supplied (emission-only
    chains).  When dithering is off, ``dither`` equals ``burst`` and
    the dither stage does not exist as a distinct node.
    """

    power: str
    burst: str
    dither: str
    emit: str
    capture: Optional[str] = None

    def stages(self) -> List[Tuple[str, str]]:
        """Ordered (stage, key) nodes, collapsing the absent dither."""
        nodes = [("pmu", self.power), ("vrm", self.burst)]
        if self.dither != self.burst:
            nodes.append(("dither", self.dither))
        nodes.append(("emission", self.emit))
        if self.capture is not None:
            nodes.append(("capture", self.capture))
        return nodes


def capture_chain_keys(
    machine: Machine,
    activity: ActivityTrace,
    scenario: Optional[Scenario],
    profile: SimProfile,
    rng: np.random.Generator,
    *,
    allow_c_states: bool = True,
    allow_p_states: bool = True,
    vrm_dithering=None,
) -> ChainKeys:
    """Fingerprint a trial's whole key chain without executing it.

    This is the planner's entry point: given the chain inputs (the RNG
    is read, never advanced), it names every stage the trial would
    compute, so trials can be grouped by shared prefix before anything
    runs.
    """
    k_power, k_burst, k_dither, k_emit = _chain_keys(
        machine,
        activity,
        profile,
        rng,
        allow_c_states,
        allow_p_states,
        vrm_dithering,
    )
    k_capture = None
    if scenario is not None:
        k_capture = fingerprint(CHAIN_SCHEMA, "capture", k_emit, scenario)
    return ChainKeys(k_power, k_burst, k_dither, k_emit, k_capture)


# ---------------------------------------------------------------------------
# Tracing helpers


def _stage_hit(name: str, key, rng: np.random.Generator) -> None:
    """Trace a stage served from cache (RNG digest is post-restore)."""
    if tracing_active():
        trace_event(
            "stage",
            name=name,
            cache="hit",
            key=key_prefix(key),
            rng=rng_digest(rng),
        )


def _stage_span(name: str, key, rng: np.random.Generator):
    """Span for a stage that actually computes (miss, or cache off)."""
    return span(
        name,
        {"cache": "off" if key is None else "miss", "key": key_prefix(key)},
        lazy=lambda: {"rng": rng_digest(rng)},
    )


# ---------------------------------------------------------------------------
# Entry points: a batch of one


def _render_one(
    machine: Machine,
    activity: ActivityTrace,
    scenario: Optional[Scenario],
    profile: SimProfile,
    rng: np.random.Generator,
    allow_c_states: bool,
    allow_p_states: bool,
    vrm_dithering,
):
    """Resolve one trial's chain and advance ``rng`` to its exit state."""
    # Lazy import: repro.batch imports this module for the key chain.
    from .batch.chain import ChainRequest, render_captures_batched

    keys = capture_chain_keys(
        machine,
        activity,
        scenario,
        profile,
        rng,
        allow_c_states=allow_c_states,
        allow_p_states=allow_p_states,
        vrm_dithering=vrm_dithering,
    )
    (resolved,) = render_captures_batched(
        [
            ChainRequest(
                machine=machine,
                activity=activity,
                scenario=scenario,
                profile=profile,
                allow_c_states=allow_c_states,
                allow_p_states=allow_p_states,
                vrm_dithering=vrm_dithering,
                keys=keys,
                entry_state=_rng_state(rng),
            )
        ]
    )
    rng.bit_generator.state = resolved.exit_state
    return resolved


def render_emission(
    machine: Machine,
    activity: ActivityTrace,
    profile: SimProfile,
    rng: np.random.Generator,
    *,
    allow_c_states: bool = True,
    allow_p_states: bool = True,
    vrm_dithering=None,
) -> np.ndarray:
    """Activity -> emitted RF waveform (before propagation).

    ``vrm_dithering`` optionally applies the Section VI spread-spectrum
    countermeasure (:class:`repro.countermeasures.VrmDithering`) to the
    burst train before synthesis.
    """
    return _render_one(
        machine,
        activity,
        None,
        profile,
        rng,
        allow_c_states,
        allow_p_states,
        vrm_dithering,
    ).emission


def render_capture(
    machine: Machine,
    activity: ActivityTrace,
    scenario: Scenario,
    profile: SimProfile,
    rng: np.random.Generator,
    *,
    allow_c_states: bool = True,
    allow_p_states: bool = True,
    vrm_dithering=None,
) -> IQCapture:
    """Full chain: activity -> complex baseband IQ capture.

    The finished capture is itself cached, keyed by the emission key
    plus the scenario, so a sweep that varies only the *receiver*
    (decoder/detector configuration) pays for the analog chain once.
    """
    return _render_one(
        machine,
        activity,
        scenario,
        profile,
        rng,
        allow_c_states,
        allow_p_states,
        vrm_dithering,
    ).capture
