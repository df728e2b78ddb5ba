"""Cache-key coverage, checked by running the chain.

The chain cache (``k_power ... k_capture``, :mod:`repro.chain`) is sound
only if every physics input reaches its stage's key: *same key => same
bytes*.  This module perturbs one chain input at a time - every leaf
field of the machine, profile, scenario and dithering config, the
activity intervals, both BIOS flags, the RNG entry state and dithering
on/off - and requires each perturbation to either change the stage key
or leave the stage output byte-identical.  Over-keying (a changed key
with unchanged bytes) is legal, so a field the model ignores can never
fail.

Every trial is resolved with the cache off and in a batch of its own:
the resolver deduplicates requests by key, so a shared batch would
hide exactly the collisions this test looks for.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

import repro.chain
from repro.batch.chain import ChainRequest, render_captures_batched
from repro.chain import (
    capture_chain_keys,
    paper_tuned_frequency_hz,
    render_capture,
    tuned_frequency_hz,
)
from repro.countermeasures import VrmDithering
from repro.em.environment import near_field_scenario
from repro.em.noise import ImpulsiveNoise, ToneInterferer
from repro.em.propagation import Wall
from repro.exec import execution_scope
from repro.params import TINY
from repro.power.workload import alternating_workload
from repro.systems.laptops import DELL_INSPIRON

SEED = 0

#: Chain inputs, as :class:`ChainRequest` field names, that feed the
#: power stage (``k_power``); everything else enters further down.
POWER_INPUTS = (
    "machine",
    "activity",
    "profile",
    "allow_c_states",
    "allow_p_states",
    "entry_state",
)


def _state(seed: int) -> dict:
    return np.random.default_rng(seed).bit_generator.state


def _baseline() -> dict:
    """The unperturbed chain inputs: ChainRequest fields + entry state."""
    machine = DELL_INSPIRON
    return {
        "machine": machine,
        "activity": alternating_workload(
            TINY.dilate(10e-3), TINY.dilate(0.5e-3), TINY.dilate(0.5e-3)
        ),
        "scenario": near_field_scenario(
            tuned_frequency_hz(machine, TINY),
            physics_frequency_hz=paper_tuned_frequency_hz(machine),
        ),
        "profile": TINY,
        "allow_c_states": True,
        "allow_p_states": True,
        "vrm_dithering": VrmDithering(),
        "entry_state": _state(SEED),
    }


BASE = _baseline()

#: Leaves whose generic perturbation (below) would be meaningless: a
#: string the model branches on, and empty or absent structure.
SPECIAL = {
    "machine.architecture": "Skylake",  # flips Machine.uses_speed_shift
    "scenario.wall": Wall(),
    "scenario.noise.tones": [
        ToneInterferer(BASE["scenario"].band_center_hz * 1.02, 0.02)
    ],
    "scenario.noise.impulses": [ImpulsiveNoise(rate_hz=2.0, amplitude=0.05)],
}


def _leaves(obj, path: str):
    """(dotted path, value) of every non-dataclass field under ``obj``."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        sub = f"{path}.{f.name}"
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, sub)
        else:
            yield sub, value


def _replaced(obj, names, value):
    """``obj`` with the field at the dotted ``names`` set to ``value``."""
    head, *rest = names
    inner = _replaced(getattr(obj, head), rest, value) if rest else value
    return dataclasses.replace(obj, **{head: inner})


def _perturbed(path: str, value):
    if path in SPECIAL:
        return SPECIAL[path]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 0.75 if value else 1.0
    if isinstance(value, str):
        return value + "-perturbed"
    raise TypeError(f"no perturbation for {path} = {value!r}; add to SPECIAL")


def _middle_interval(activity, **changes):
    """``activity`` with its middle interval's fields replaced."""
    intervals = list(activity.intervals)
    i = len(intervals) // 2
    intervals[i] = dataclasses.replace(intervals[i], **changes)
    return dataclasses.replace(activity, intervals=intervals)


def _perturbations() -> dict:
    """label -> perturbed inputs, one chain input changed per entry."""
    table = {}
    for name in ("machine", "profile", "scenario", "vrm_dithering"):
        for path, value in _leaves(BASE[name], name):
            new = _perturbed(path, value)
            assert new != value, path
            names = path.split(".")[1:]
            table[path] = {**BASE, name: _replaced(BASE[name], names, new)}
    activity = BASE["activity"]
    mid = activity.intervals[len(activity.intervals) // 2]
    quarter = 0.25 * (mid.end - mid.start)
    for label, changed in {
        "activity.start": _middle_interval(activity, start=mid.start + quarter),
        "activity.end": _middle_interval(activity, end=mid.end - quarter),
        "activity.level": _middle_interval(activity, level=mid.level / 2),
        "activity.duration": dataclasses.replace(
            activity, duration=activity.duration * 1.25
        ),
    }.items():
        table[label] = {**BASE, "activity": changed}
    table["allow_c_states"] = {**BASE, "allow_c_states": False}
    table["allow_p_states"] = {**BASE, "allow_p_states": False}
    table["vrm_dithering"] = {**BASE, "vrm_dithering": None}
    table["entry_state"] = {**BASE, "entry_state": _state(SEED + 1)}
    return table


PERTURBATIONS = _perturbations()


def _keys(inputs):
    rng = np.random.default_rng(0)
    rng.bit_generator.state = inputs["entry_state"]
    return capture_chain_keys(
        inputs["machine"],
        inputs["activity"],
        inputs["scenario"],
        inputs["profile"],
        rng,
        allow_c_states=inputs["allow_c_states"],
        allow_p_states=inputs["allow_p_states"],
        vrm_dithering=inputs["vrm_dithering"],
    )


def _resolve(inputs):
    """(keys, emission output, capture output) of one trial; each
    output is its bytes plus the RNG exit state a cache hit restores."""
    keys = _keys(inputs)
    request = ChainRequest(**inputs, keys=keys)
    emission_only = dataclasses.replace(
        request, scenario=None, keys=dataclasses.replace(keys, capture=None)
    )
    with execution_scope(cache_enabled=False):
        (capture,) = render_captures_batched([request])
        (emission,) = render_captures_batched([emission_only])
    return (
        keys,
        (emission.emission.tobytes(), emission.exit_state),
        (capture.capture.samples.tobytes(), capture.exit_state),
    )


def test_every_chain_input_is_perturbed():
    """A new chain input cannot slip in without a perturbation."""
    request_fields = {
        f.name for f in dataclasses.fields(ChainRequest)
    } - {"keys", "entry_state"}
    keywords = {
        p.name
        for p in inspect.signature(render_capture).parameters.values()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    }
    perturbed = {label.partition(".")[0] for label in PERTURBATIONS}
    missing = sorted((request_fields | keywords) - perturbed)
    assert not missing, f"chain inputs without a perturbation: {missing}"


@pytest.fixture(scope="module")
def baseline():
    return _resolve(BASE)


@pytest.mark.parametrize("label", sorted(PERTURBATIONS))
def test_same_key_means_same_bytes(baseline, label):
    base_keys, base_emission, base_capture = baseline
    keys, emission, capture = _resolve(PERTURBATIONS[label])
    assert keys.emit != base_keys.emit or emission == base_emission, (
        f"{label}: same k_emit, different emission"
    )
    assert keys.capture != base_keys.capture or capture == base_capture, (
        f"{label}: same k_capture, different capture"
    )


def test_prefix_sharing():
    """The sharing the sweep planner relies on: an input keeps every key
    above the stage it enters - only power inputs move ``k_power``,
    scenario inputs leave ``k_emit`` and dithering leaves ``k_burst``."""
    base = _keys(BASE)
    for label, inputs in PERTURBATIONS.items():
        keys = _keys(inputs)
        root = label.partition(".")[0]
        if root not in POWER_INPUTS:
            assert keys.power == base.power, label
        if root == "scenario":
            assert keys.emit == base.emit, label
        if root == "vrm_dithering":
            assert keys.burst == base.burst, label


def test_schema_bump_changes_every_key(monkeypatch):
    """CHAIN_SCHEMA reaches every key: a bump strands all old entries.

    Non-power inputs leave ``k_power`` alone (:func:`test_prefix_sharing`),
    so the schema tag is the only non-power input that moves it."""
    before = _keys(BASE)
    monkeypatch.setattr(
        repro.chain, "CHAIN_SCHEMA", repro.chain.CHAIN_SCHEMA + "-bumped"
    )
    after = _keys(BASE)
    for f in dataclasses.fields(before):
        assert getattr(after, f.name) != getattr(before, f.name), f.name
