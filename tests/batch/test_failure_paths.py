"""Degenerate and ragged inputs through the batched runner.

The batched path earns its keep on big regular grids, but the engine
hands it whatever a resume left pending: nothing at all, a single
straggler trial, or a ragged mix of groups whose receivers disagree on
FFT geometry and whose payloads disagree on length.  Each of those must
come back bit-identical to naive per-trial runs - the degenerate cases are
exactly where a vectorised implementation silently pads, truncates, or
divides by zero.
"""

import pytest

from repro.batch.chain import render_captures_batched
from repro.batch.runner import run_trials_batched
from repro.exec.cache import reset_chain_cache
from repro.exec.context import execution_scope
from repro.sweep.engine import run_sweep
from repro.sweep.plan import plan_sweep
from repro.sweep.spec import SweepSpec


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_chain_cache()
    yield
    reset_chain_cache()


def comparable(record):
    out = dict(record)
    out.pop("elapsed_s")
    return out


def scalar_reference(spec):
    reset_chain_cache()
    return [
        comparable(r) for r in run_sweep(spec, naive=True, jobs=1).records
    ]


def ragged_spec():
    """Groups of unequal size and geometry: three receivers share one
    capture (one fat group), a different scenario contributes a
    singleton, and a second seed adds a group with a different payload
    length - nothing about the batch is rectangular."""
    return SweepSpec(
        name="test-batch-ragged",
        base={"bits": 24},
        zips=[
            {
                "receiver": [
                    None,
                    {"acquisition": {"fft_size": 256, "hop": 16}},
                    {"acquisition": {"fft_size": 512, "hop": 32}},
                    None,
                    None,
                ],
                "scenario": [
                    None,
                    None,
                    None,
                    {"kind": "distance", "distance_m": 1.0},
                    None,
                ],
                "seed": [0, 0, 0, 0, 3],
                "bits": [24, 24, 24, 24, 40],
            }
        ],
    )


class TestEmptyBatch:
    def test_no_pending_trials_is_a_clean_noop(self):
        plan = plan_sweep(SweepSpec(base={"bits": 24}))
        with execution_scope(cache_enabled=True):
            assert run_trials_batched([]) == []

    def test_no_chain_requests_resolve_to_nothing(self):
        with execution_scope(cache_enabled=False):
            assert render_captures_batched([]) == []

    def test_warm_map_ignores_groups_with_no_pending_consumer(self):
        spec = SweepSpec(
            base={"bits": 24},
            zips=[
                {
                    "receiver": [
                        None,
                        {"acquisition": {"fft_size": 256, "hop": 16}},
                    ]
                }
            ],
        )
        plan = plan_sweep(spec)
        assert plan.warm_nodes(plan.trials) != []
        assert plan.warm_nodes([]) == []


class TestSingleTrialDegenerate:
    """A one-trial batch exercises every vector kernel at batch size
    one; the records must still match the naive path bit for bit."""

    def test_single_trial_matches_scalar(self):
        spec = SweepSpec(name="test-batch-single", base={"bits": 24})
        reference = scalar_reference(spec)
        plan = plan_sweep(spec)
        assert plan.n_trials == 1
        reset_chain_cache()
        with execution_scope(cache_enabled=True):
            records = run_trials_batched(plan.trials)
        assert [comparable(r) for r in records] == reference
        # A singleton shares nothing, so no node is shared.
        assert plan.warm_nodes(plan.trials) == []

    def test_single_trial_without_cache(self):
        spec = SweepSpec(name="test-batch-single", base={"bits": 24})
        reference = scalar_reference(spec)
        plan = plan_sweep(spec)
        with execution_scope(cache_enabled=False):
            records = run_trials_batched(plan.trials)
        assert [comparable(r) for r in records] == reference

    def test_engine_batch_on_single_trial(self):
        """``run_sweep`` with one trial takes the batched path end to
        end and still equals the naive records."""
        spec = SweepSpec(name="test-batch-single", base={"bits": 24})
        reference = scalar_reference(spec)
        reset_chain_cache()
        with execution_scope(cache_enabled=True):
            outcome = run_sweep(spec, jobs=1)
        assert [comparable(r) for r in outcome.records] == reference


class TestRaggedGroups:
    def test_ragged_batch_matches_scalar(self):
        spec = ragged_spec()
        reference = scalar_reference(spec)
        plan = plan_sweep(spec)
        reset_chain_cache()
        with execution_scope(cache_enabled=True):
            records = run_trials_batched(plan.trials)
        assert [comparable(r) for r in records] == reference

    def test_ragged_tail_after_partial_resume(self):
        """Resume topology: the fat group's first trial already ran
        (cache warm); the ragged remainder - including the singleton
        groups - must come back identical."""
        spec = ragged_spec()
        reference = scalar_reference(spec)
        plan = plan_sweep(spec)
        reset_chain_cache()
        with execution_scope(cache_enabled=True):
            head = run_trials_batched(plan.trials[:1])
            tail = run_trials_batched(plan.trials[1:])
        got = [comparable(r) for r in head + tail]
        assert got == reference

    def test_mixed_payload_lengths_do_not_bleed(self):
        """The 40-bit trial and the 24-bit trials decode from the same
        batch; per-trial bit counts must come from each trial's own
        payload, not a shared pad."""
        spec = ragged_spec()
        plan = plan_sweep(spec)
        reset_chain_cache()
        with execution_scope(cache_enabled=True):
            records = run_trials_batched(plan.trials)
        by_id = {r["trial_id"]: r for r in records}
        for tp in plan.trials:
            expected_bits = tp.trial.bits
            assert by_id[tp.trial_id]["trial"]["bits"] == expected_bits
