"""Tests for the shared analog chain module."""

import numpy as np
import pytest

from repro.chain import (
    paper_tuned_frequency_hz,
    render_capture,
    render_emission,
    tuned_frequency_hz,
)
from repro.em.environment import near_field_scenario
from repro.params import PAPER, TINY
from repro.power.pmu import PMU
from repro.power.workload import alternating_workload
from repro.systems.laptops import DELL_INSPIRON


def run_power_states(machine, activity, profile, rng, allow_c_states=True):
    """The chain's PMU stage: activity -> power-state residencies."""
    table = machine.power_table(allow_c=allow_c_states, allow_p=True)
    pmu = PMU(table, governor=machine.governor(table, profile), rng=rng)
    return pmu.run(activity)


class TestTuning:
    def test_tuned_between_fundamental_and_harmonic(self):
        f = tuned_frequency_hz(DELL_INSPIRON, TINY)
        f0 = DELL_INSPIRON.vrm_frequency_hz / TINY.total_freq_divisor
        assert f == pytest.approx(1.5 * f0)

    def test_paper_tuning_ignores_profile(self):
        assert paper_tuned_frequency_hz(DELL_INSPIRON) == pytest.approx(
            1.5 * DELL_INSPIRON.vrm_frequency_hz
        )

    def test_profile_scales_tuning(self):
        assert tuned_frequency_hz(DELL_INSPIRON, PAPER) == pytest.approx(
            100 * tuned_frequency_hz(DELL_INSPIRON, TINY)
        )


class TestPowerChain:
    def test_power_trace_covers_workload(self):
        workload = alternating_workload(
            TINY.dilate(2e-3), TINY.dilate(0.5e-3), TINY.dilate(0.5e-3)
        )
        trace = run_power_states(
            DELL_INSPIRON, workload, TINY, np.random.default_rng(0)
        )
        assert trace.residencies[-1].end == pytest.approx(workload.duration)

    def test_bios_knob_restricts_states(self):
        workload = alternating_workload(
            TINY.dilate(2e-3), TINY.dilate(0.5e-3), TINY.dilate(0.5e-3)
        )
        trace = run_power_states(
            DELL_INSPIRON,
            workload,
            TINY,
            np.random.default_rng(0),
            allow_c_states=False,
        )
        assert all(r.c_state == 0 for r in trace.residencies)


class TestRendering:
    def test_emission_length_matches_duration(self):
        workload = alternating_workload(
            TINY.dilate(2e-3), TINY.dilate(0.5e-3), TINY.dilate(0.5e-3)
        )
        wave = render_emission(
            DELL_INSPIRON, workload, TINY, np.random.default_rng(1)
        )
        assert wave.size == pytest.approx(
            workload.duration * TINY.rf_sample_rate_hz, abs=2
        )

    def test_capture_tunes_to_machine(self):
        workload = alternating_workload(
            TINY.dilate(2e-3), TINY.dilate(0.5e-3), TINY.dilate(0.5e-3)
        )
        scenario = near_field_scenario(tuned_frequency_hz(DELL_INSPIRON, TINY))
        capture = render_capture(
            DELL_INSPIRON, workload, scenario, TINY, np.random.default_rng(2)
        )
        assert capture.center_frequency == pytest.approx(
            tuned_frequency_hz(DELL_INSPIRON, TINY)
        )

    def test_dithering_hook_applied(self):
        from repro.countermeasures import VrmDithering

        workload = alternating_workload(
            TINY.dilate(2e-3), TINY.dilate(1e-3), TINY.dilate(0.2e-3)
        )
        clean = render_emission(
            DELL_INSPIRON, workload, TINY, np.random.default_rng(3)
        )
        dithered = render_emission(
            DELL_INSPIRON,
            workload,
            TINY,
            np.random.default_rng(3),
            vrm_dithering=VrmDithering(spread_rel=0.1),
        )
        f0 = DELL_INSPIRON.vrm_frequency_hz / TINY.total_freq_divisor
        freqs = np.fft.rfftfreq(clean.size, 1 / TINY.rf_sample_rate_hz)
        line = np.argmin(np.abs(freqs - f0))
        clean_line = np.abs(np.fft.rfft(clean))[line]
        dithered_line = np.abs(np.fft.rfft(dithered[: clean.size]))[line]
        assert dithered_line < 0.7 * clean_line
