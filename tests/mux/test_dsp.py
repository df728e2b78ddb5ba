"""Batched cross-stream DSP: grouping and bit-identity with per-stream.

The load-bearing claim: ``tick_group`` stacking many streams' staged
frames through one windowed FFT produces, per stream, the exact
envelope a lone receiver's ``push_samples`` would - for any stream mix,
any tick chunking, and any FFT row-block layout.
"""

import numpy as np
import pytest

import repro.dsp.stft as stft_mod
from repro.mux.dsp import MuxStream, group_streams, tick_group

from .conftest import make_capture, make_receiver, make_source


def _per_stream_reference(capture, pieces, online=False, vrm_hz=5_000.0):
    source = make_source(capture, 256)
    receiver = make_receiver(source, online=online, vrm_hz=vrm_hz)
    now = 0.0
    events = []
    for piece in pieces:
        now += 0.01
        events.extend(receiver.push_samples(piece, now))
    return receiver, events


def _split(samples, sizes):
    out, pos, i = [], 0, 0
    while pos < samples.size:
        n = sizes[i % len(sizes)]
        out.append(samples[pos : pos + n])
        pos += n
        i += 1
    return out


class TestGrouping:
    def test_same_config_same_group(self, capture):
        streams = []
        for i, vrm in enumerate((4_000.0, 5_000.0, 6_000.0)):
            source = make_source(capture, 256)
            streams.append(
                MuxStream(f"s{i}", make_receiver(source, vrm_hz=vrm))
            )
        groups = group_streams(streams)
        # different tuned bins, same STFT shape: one shared kernel
        assert len(groups) == 1
        (members,) = groups.values()
        assert members == streams

    def test_different_sample_rate_splits_group(self):
        a = make_capture(4_096, sample_rate=24_000.0)
        b = make_capture(4_096, sample_rate=48_000.0)
        streams = []
        for i, capture in enumerate((a, b)):
            source = make_source(capture, 256)
            streams.append(MuxStream(f"s{i}", make_receiver(source)))
        assert len(group_streams(streams)) == 2


class TestBitIdentity:
    @pytest.mark.parametrize("tick_sizes", [[1024], [256, 512, 2048], [97]])
    def test_matches_per_stream_for_any_tick_chunking(
        self, capture, tick_sizes
    ):
        pieces = _split(capture.samples, tick_sizes)
        reference, _ = _per_stream_reference(capture, pieces)

        source = make_source(capture, 256)
        receiver = make_receiver(source)
        ms = MuxStream("s0", receiver)
        now = 0.0
        for piece in pieces:
            now += 0.01
            ms.buffer(piece)
            tick_group([ms], now)

        np.testing.assert_array_equal(
            receiver.envelope().samples, reference.envelope().samples
        )
        np.testing.assert_array_equal(
            receiver.finalize().bits, reference.finalize().bits
        )

    def test_many_streams_share_one_kernel(self):
        captures = [make_capture(6_000, seed=s) for s in range(5)]
        vrms = (4_000.0, 5_000.0, 5_500.0, 6_000.0, 5_000.0)
        references = [
            _per_stream_reference(c, _split(c.samples, [700]), vrm_hz=v)[0]
            for c, v in zip(captures, vrms)
        ]

        streams = []
        for i, (c, v) in enumerate(zip(captures, vrms)):
            source = make_source(c, 256)
            streams.append(MuxStream(f"s{i}", make_receiver(source, vrm_hz=v)))
        assert len(group_streams(streams)) == 1
        pieces = [_split(c.samples, [700]) for c in captures]
        for round_ in range(max(len(p) for p in pieces)):
            for ms, stream_pieces in zip(streams, pieces):
                if round_ < len(stream_pieces):
                    ms.buffer(stream_pieces[round_])
            tick_group(streams, 0.01 * (round_ + 1))

        for ms, reference in zip(streams, references):
            np.testing.assert_array_equal(
                ms.receiver.envelope().samples,
                reference.envelope().samples,
            )

    def test_block_layout_is_unobservable(self, capture, monkeypatch):
        # Force tiny FFT blocks so streams straddle block boundaries;
        # rows are independent, so the outputs cannot change.
        reference, _ = _per_stream_reference(
            capture, _split(capture.samples, [1024])
        )
        monkeypatch.setattr(
            stft_mod, "BLOCK_BYTES", 3 * 256 * 16
        )  # 3 rows per block
        source = make_source(capture, 256)
        receiver = make_receiver(source)
        ms = MuxStream("s0", receiver)
        for i, piece in enumerate(_split(capture.samples, [1024])):
            ms.buffer(piece)
            tick_group([ms], 0.01 * (i + 1))
        np.testing.assert_array_equal(
            receiver.envelope().samples, reference.envelope().samples
        )

    def test_online_events_match_per_stream(self, capture):
        # online receivers get their provisional events from the
        # batched envelope path too
        pieces = _split(capture.samples, [2048])
        reference, ref_events = _per_stream_reference(
            capture, pieces, online=True
        )
        source = make_source(capture, 256)
        receiver = make_receiver(source, online=True)
        ms = MuxStream("s0", receiver)
        events = []
        now = 0.0
        for piece in pieces:
            now += 0.01
            ms.buffer(piece)
            for _, evs in tick_group([ms], now):
                events.extend(evs)
        assert len(events) == len(ref_events)
        np.testing.assert_array_equal(
            receiver.envelope().samples, reference.envelope().samples
        )

    def test_deferred_and_online_finalize_identically(self, capture):
        pieces = _split(capture.samples, [1536])
        online, _ = _per_stream_reference(capture, pieces, online=True)
        deferred, _ = _per_stream_reference(capture, pieces, online=False)
        np.testing.assert_array_equal(
            deferred.finalize().bits, online.finalize().bits
        )


class TestMuxStream:
    def test_take_pending_concatenates_in_order(self, capture):
        source = make_source(capture, 256)
        ms = MuxStream("s0", make_receiver(source))
        a, b = capture.samples[:100], capture.samples[100:300]
        ms.buffer(a)
        ms.buffer(b)
        assert ms.pending_samples == 300
        got = ms.take_pending()
        np.testing.assert_array_equal(got, capture.samples[:300])
        assert ms.pending_samples == 0
        assert ms.take_pending() is None

    def test_empty_buffer_is_ignored(self, capture):
        source = make_source(capture, 256)
        ms = MuxStream("s0", make_receiver(source))
        ms.buffer(capture.samples[:0])
        assert ms.pending_samples == 0
        assert tick_group([ms], 0.0) == []
