"""Scheduler semantics: conservation, priorities, budgets, backpressure."""

import numpy as np
import pytest

from repro.mux.pool import ChunkPool
from repro.mux.scheduler import StreamMultiplexer

from .conftest import (
    SAMPLE_RATE,
    make_capture,
    make_mux,
    make_receiver,
    make_source,
)


def _final_bits(mux, stream_id):
    return mux.state(stream_id).mux.receiver.finalize().bits


class TestLosslessRuns:
    def test_everything_delivered_and_conserved(self):
        mux = make_mux([make_capture(8_192, seed=s) for s in range(3)])
        mux.run()
        mux.check_conservation()
        totals = mux.totals()
        assert totals["produced_chunks"] == totals["delivered_chunks"] > 0
        assert totals["dropped_chunks"] == 0
        assert totals["shed_chunks"] == 0
        assert mux.shed_fraction() == 0.0
        assert mux.done

    def test_fast_path_never_touches_the_pool(self):
        # no service cap, queues never back up: every chunk takes the
        # zero-queue fast path, so no slab is ever acquired
        mux = make_mux([make_capture(8_192, seed=s) for s in range(2)])
        mux.run()
        assert mux.pool.high_watermark == 0
        assert mux.totals()["delivered_chunks"] > 0

    def test_deterministic_across_runs(self):
        def build():
            return make_mux([make_capture(8_192, seed=s) for s in range(2)])

        a, b = build(), build()
        assert a.run() == b.run()
        assert a.totals() == b.totals()
        for sid in a.stream_ids:
            np.testing.assert_array_equal(
                _final_bits(a, sid), _final_bits(b, sid)
            )

    def test_max_ticks_pauses_then_resumes(self):
        mux = make_mux([make_capture(8_192)])
        ran = mux.run(max_ticks=2)
        assert ran == 2 and not mux.done
        mux.check_conservation()  # invariant holds mid-run too
        mux.run()
        assert mux.done
        mux.check_conservation()


class TestBudgets:
    def test_slow_service_rate_sheds_under_drop_oldest(self):
        mux = make_mux(
            [make_capture(16_384)],
            capacity=4,
            service_rate_sps=SAMPLE_RATE * 0.25,
        )
        mux.run()
        mux.check_conservation()
        totals = mux.totals()
        assert totals["dropped_chunks"] > 0
        assert 0.0 < mux.shed_fraction() < 1.0
        assert mux.pool.high_watermark > 0  # budgeted streams use slabs

    def test_debt_only_carry_never_bursts(self):
        # budget of ~half a chunk per tick: the overdraft admits one
        # chunk, the debt is repaid, so delivery alternates rather than
        # bursting - and the whole (small) queue still drains
        mux = make_mux(
            [make_capture(4_096)],
            capacity=64,
            service_rate_sps=SAMPLE_RATE * 0.125,
        )
        mux.run()
        mux.check_conservation()
        totals = mux.totals()
        assert totals["delivered_chunks"] == totals["produced_chunks"]
        state = mux.state("s000")
        assert state.carry <= 0.0

    def test_priority_orders_service(self):
        order = []

        def spy(stream_id, chunk):
            order.append(stream_id)
            return False

        captures = [make_capture(4_096, seed=s) for s in range(2)]
        tick_s = 4 * 256 / SAMPLE_RATE
        pool = ChunkPool(16, 256)
        mux = StreamMultiplexer(pool, tick_s=tick_s, shed_hook=spy)
        for i, (capture, priority) in enumerate(
            zip(captures, (5, 1))  # registration order != priority order
        ):
            source = make_source(capture, 256, jitter_seed=i)
            mux.add_stream(
                f"s{i}",
                source,
                make_receiver(source),
                capacity=8,
                priority=priority,
                service_rate_sps=SAMPLE_RATE,
            )
        mux.run()
        assert order[0] == "s1"  # lower priority value served first
        first_pass = order[: 2 * 4]
        assert first_pass.count("s1") == first_pass.count("s0")  # round-robin


class TestShedding:
    def test_shed_hook_vetoes_and_accounts(self):
        count = 0

        def every_third(stream_id, chunk):
            nonlocal count
            count += 1
            return count % 3 == 0

        mux = make_mux([make_capture(8_192)], shed_hook=every_third)
        mux.run()
        mux.check_conservation()
        totals = mux.totals()
        assert totals["shed_chunks"] > 0
        assert (
            totals["produced_chunks"]
            == totals["delivered_chunks"] + totals["shed_chunks"]
        )

    def test_shed_gaps_are_zero_filled(self):
        def every_other(stream_id, chunk):
            return chunk.index % 2 == 1

        mux = make_mux([make_capture(8_192)], shed_hook=every_other)
        mux.run()
        state = mux.state("s000")
        # the receiver's time base is contiguous: delivered + zeros
        assert state.counters.gap_samples > 0
        sstft = state.mux.sstft
        assert sstft.n_samples == (
            state.counters.delivered_samples + state.counters.gap_samples
        )


class TestBlockPolicy:
    def test_backpressure_holds_chunks_at_the_source(self):
        # tiny queue + slow budget under block policy: nothing is ever
        # dropped, the source just waits
        mux = make_mux(
            [make_capture(8_192)],
            capacity=2,
            policy="block",
            service_rate_sps=SAMPLE_RATE * 0.5,
        )
        mux.run()
        mux.check_conservation()
        totals = mux.totals()
        assert totals["dropped_chunks"] == 0
        assert totals["delivered_chunks"] == totals["produced_chunks"] > 0

    def test_block_streams_share_an_undersized_pool(self):
        captures = [make_capture(4_096, seed=s) for s in range(3)]
        tick_s = 4 * 256 / SAMPLE_RATE
        pool = ChunkPool(3, 256)  # 1 slab per stream
        mux = StreamMultiplexer(pool, tick_s=tick_s)
        for i, capture in enumerate(captures):
            source = make_source(capture, 256, jitter_seed=i)
            mux.add_stream(
                f"s{i}",
                source,
                make_receiver(source),
                capacity=2,
                policy="block",
                service_rate_sps=SAMPLE_RATE * 0.5,
            )
        mux.run()
        mux.check_conservation()
        assert mux.totals()["dropped_chunks"] == 0
        assert mux.done


class TestZeroCapacityStream:
    def test_registered_but_starved(self):
        mux = make_mux([make_capture(4_096)], capacity=0)
        mux.run()
        mux.check_conservation()
        totals = mux.totals()
        assert totals["dropped_chunks"] == totals["produced_chunks"] > 0
        assert totals["delivered_chunks"] == 0
        state = mux.state("s000")
        assert state.mux.sstft.n_samples == 0
        assert mux.done


class TestRegistration:
    def test_duplicate_id_rejected(self, capture):
        mux = make_mux([capture])
        source = make_source(capture, 256)
        with pytest.raises(ValueError):
            mux.add_stream("s000", source, make_receiver(source))

    def test_bad_tick_rejected(self):
        with pytest.raises(ValueError):
            StreamMultiplexer(ChunkPool(1, 16), tick_s=0.0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
    def test_non_positive_service_rate_rejected(self, capture, rate):
        # A budget that never grows would leave the queue undrained and
        # ``run()`` ticking forever; registration refuses it up front.
        mux = make_mux([capture])
        source = make_source(capture, 256)
        with pytest.raises(ValueError, match="service_rate_sps"):
            mux.add_stream(
                "s001", source, make_receiver(source), service_rate_sps=rate
            )
        assert mux.n_streams == 1
        assert mux.run(max_ticks=1000) < 1000
