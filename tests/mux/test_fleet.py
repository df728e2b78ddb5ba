"""Fleet construction from registered scenarios + the acceptance check.

The acceptance surface of the whole multiplexer: a drop-free mixed
fleet finalises, per stream, the exact decode a lone per-stream
receiver produces from the same capture.
"""

import numpy as np
import pytest

from repro.mux import (
    FleetStreamSpec,
    build_multiplexer,
    finalized_digests,
    stream_spec_from_scenario,
)
from repro.mux.fleet import bits_digest, golden_digest, truncate_spec


@pytest.fixture(scope="module")
def covert_spec():
    return stream_spec_from_scenario("stream-covert")


@pytest.fixture(scope="module")
def keylog_spec():
    return stream_spec_from_scenario("keylog")


class TestSpecExtraction:
    def test_stream_covert_layout(self, covert_spec):
        spec = covert_spec
        assert spec.kind == "covert"
        assert spec.capture.samples.size > 0
        assert spec.vrm_frequency_hz > 0
        assert spec.expected_bit_period_s > 0
        assert spec.tx_bits is not None and len(spec.tx_bits) > 0
        assert spec.decoder_config is not None

    def test_keylog_layout(self, keylog_spec):
        spec = keylog_spec
        assert spec.kind == "keylog"
        assert spec.capture.samples.size > 0
        assert spec.vrm_frequency_hz > 0
        assert spec.detector_config is not None

    @pytest.mark.parametrize(
        "name", ["ichannels-throttle", "clockmod-fsk"]
    )
    def test_attack_scenario_layout(self, name):
        spec = stream_spec_from_scenario(name)
        assert spec.kind == "covert"
        assert spec.capture.samples.size > 0
        assert spec.vrm_frequency_hz > 0
        assert spec.tx_bits is not None

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            stream_spec_from_scenario("no-such-scenario")

    def test_captureless_scenario_refused_before_running(self, monkeypatch):
        import repro.scenario.ports.sweeps as sweeps

        def fail(*args, **kwargs):
            pytest.fail("fig7's sweep ran before the scenario was refused")

        monkeypatch.setattr(sweeps, "run_sweep", fail)
        with pytest.raises(ValueError, match="cannot be streamed"):
            stream_spec_from_scenario("fig7")

    def test_receivers_are_fresh_instances(self, covert_spec):
        a = covert_spec.make_receiver()
        b = covert_spec.make_receiver()
        assert a is not b
        assert a.online is True  # spec default: standalone receivers
        # fleets pass online=False (deferred) via FleetStreamSpec
        assert covert_spec.make_receiver(online=False).online is False

    def test_truncate_spec(self, covert_spec):
        fs = covert_spec.capture.sample_rate
        short = truncate_spec(covert_spec, 0.25)
        assert short.capture.samples.size == int(0.25 * fs)
        assert short.scenario == covert_spec.scenario
        # truncating past the end is the identity
        assert truncate_spec(covert_spec, 1e9) is covert_spec

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan")])
    def test_truncate_spec_rejects_non_positive(self, covert_spec, duration):
        # samples[:negative] would silently replay all but the tail
        with pytest.raises(ValueError, match="duration_s"):
            truncate_spec(covert_spec, duration)


class TestBuildMultiplexer:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            build_multiplexer([])

    def test_shared_capture_across_a_slice(self):
        mux, by_stream = build_multiplexer(
            [FleetStreamSpec("stream-covert", count=3, duration_s=0.2)]
        )
        specs = list(by_stream.values())
        assert len(specs) == 3
        # one render, shared read-only by every stream of the slice
        assert all(
            s.capture.samples is specs[0].capture.samples for s in specs
        )
        assert mux.n_streams == 3
        assert mux.stream_ids == [
            "stream-covert/00000",
            "stream-covert/00001",
            "stream-covert/00002",
        ]

    def test_pool_sized_to_sum_of_capacities(self):
        mux, _ = build_multiplexer(
            [FleetStreamSpec("stream-covert", count=2, capacity=4,
                             duration_s=0.2)]
        )
        assert mux.pool.n_slabs == 8


class TestAcceptance:
    """Drop-free mixed fleet == per-stream golden path, bit for bit."""

    def test_mixed_fleet_bit_identical(self):
        fleet = [
            FleetStreamSpec("stream-covert", count=2),
            FleetStreamSpec("keylog", count=2),
        ]
        mux, by_stream = build_multiplexer(fleet, chunk_size=512)
        mux.run()
        mux.check_conservation()
        totals = mux.totals()
        assert totals["dropped_chunks"] == 0
        assert totals["shed_chunks"] == 0

        digests = finalized_digests(mux, by_stream)
        goldens = {}
        for stream_id, spec in by_stream.items():
            key = (spec.scenario, spec.seed)
            if key not in goldens:
                goldens[key] = golden_digest(spec, chunk_size=512)
            assert digests[stream_id] == goldens[key], stream_id

    def test_covert_bits_match_batch_reference(self, covert_spec):
        # and the digest itself is the digest of the actual bit vector
        mux, by_stream = build_multiplexer(
            [FleetStreamSpec("stream-covert", count=1)], chunk_size=512
        )
        mux.run()
        (stream_id,) = by_stream
        receiver = mux.state(stream_id).mux.receiver
        bits = receiver.finalize().bits
        assert finalized_digests(mux, by_stream)[stream_id] == bits_digest(
            bits
        )
        # decode quality sanity: the finalised bits recover the payload
        tx = np.asarray(covert_spec.tx_bits)
        assert bits.size > 0.5 * tx.size
