"""Tests for ASCII rendering helpers."""

import numpy as np

from repro.dsp.render import LEVELS, ascii_lane


class TestAsciiLane:
    def test_width(self):
        assert len(ascii_lane(np.random.default_rng(0).random(500), 40)) == 40

    def test_constant_high_is_solid_under_max_norm(self):
        lane = ascii_lane(np.full(100, 5.0), 20, normalise="max")
        assert set(lane) == {LEVELS[-1]}

    def test_minmax_stretches_texture(self):
        values = np.concatenate([np.full(50, 5.0), np.full(50, 5.1)])
        lane = ascii_lane(values, 20, normalise="minmax")
        assert LEVELS[0] in lane and LEVELS[-1] in lane

    def test_zeros_render_dark(self):
        lane = ascii_lane(np.zeros(100), 20)
        assert set(lane) == {LEVELS[0]}

    def test_square_wave_shows_both_extremes(self):
        values = np.concatenate([np.zeros(50), np.ones(50)])
        lane = ascii_lane(values, 10)
        assert lane[0] == LEVELS[0]
        assert lane[-1] == LEVELS[-1]

    def test_empty_input(self):
        assert ascii_lane(np.empty(0), 10) == " " * 10
