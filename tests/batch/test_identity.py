"""Bit-identity of the batched path against the per-trial references.

The non-negotiable from the batch engine's contract: any partition of a
trial set into batches - including all-singletons - produces records
byte-identical to naive per-trial execution (bits digests, BER, RNG
exit digests, thresholds).  Plus the golden-capture pin: the chain
renders the committed fixed-seed snapshot bit-for-bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.exec.executor as ex_mod
from repro.batch.chain import ChainRequest, render_captures_batched
from repro.batch.runner import run_trials_batched
from repro.chain import capture_chain_keys
from repro.exec.cache import reset_chain_cache
from repro.exec.context import execution_scope
from repro.sweep.engine import _execute_trial, run_sweep
from repro.sweep.plan import plan_sweep
from repro.sweep.presets import RECEIVER_GRID
from repro.sweep.spec import SweepSpec


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_chain_cache()
    yield
    reset_chain_cache()


def mixed_spec(bits=24):
    """A sweep whose DAG has real structure: two scenarios x two
    receivers over one digital prefix (emission shared by all four,
    two capture nodes with fan-out two)."""
    return SweepSpec(
        name="test-batch-mixed",
        base={"bits": bits},
        grid={
            "scenario": [None, {"kind": "distance", "distance_m": 1.0}],
            "receiver": [None, RECEIVER_GRID[0]],
        },
    )


def comparable(record):
    out = dict(record)
    out.pop("elapsed_s")
    return out


def scalar_reference(spec):
    reset_chain_cache()
    return [
        comparable(r) for r in run_sweep(spec, naive=True, jobs=1).records
    ]


class TestRecordIdentity:
    def test_batched_matches_naive(self):
        spec = mixed_spec()
        reference = scalar_reference(spec)
        plan = plan_sweep(spec)
        reset_chain_cache()
        with execution_scope(cache_enabled=True):
            records = run_trials_batched(plan.trials)
        assert [comparable(r) for r in records] == reference

    def test_batched_matches_scalar_engine(self):
        """Trial-at-a-time through the cache - every capture a batch of
        one, later trials hitting earlier trials' nodes - against one
        batch of all trials on a cold cache."""
        spec = mixed_spec()
        plan = plan_sweep(spec)
        with execution_scope(cache_enabled=True):
            one_by_one = [_execute_trial(tp) for tp in plan.trials]
        reset_chain_cache()
        with execution_scope(cache_enabled=True):
            records = run_trials_batched(plan.trials)
        assert [comparable(r) for r in records] == [
            comparable(r) for r in one_by_one
        ]

    def test_dedupe_only_without_cache_matches_naive(self):
        spec = mixed_spec()
        reference = scalar_reference(spec)
        plan = plan_sweep(spec)
        with execution_scope(cache_enabled=False):
            records = run_trials_batched(plan.trials)
        assert [comparable(r) for r in records] == reference

    def test_warm_cache_rerun_identical(self):
        spec = mixed_spec()
        plan = plan_sweep(spec)
        with execution_scope(cache_enabled=True):
            cold = run_trials_batched(plan.trials)
            warm = run_trials_batched(plan.trials)
        assert [comparable(r) for r in cold] == [comparable(r) for r in warm]


SCENARIOS = st.sampled_from([None, {"kind": "distance", "distance_m": 1.0}])


class TestPartitionProperty:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cuts=st.sets(st.integers(min_value=1, max_value=3), max_size=3))
    def test_any_partition_is_byte_identical(self, cuts, reference_fixture):
        """Split the pending trials at arbitrary points; each batch runs
        through the batched engine against the accumulated cache (the
        resume topology).  Every partition must reproduce the naive
        records exactly."""
        plan, reference = reference_fixture
        bounds = [0] + sorted(cuts) + [len(plan.trials)]
        reset_chain_cache()
        records = {}
        with execution_scope(cache_enabled=True):
            for lo, hi in zip(bounds, bounds[1:]):
                if lo == hi:
                    continue
                for rec in run_trials_batched(plan.trials[lo:hi]):
                    records[rec["trial_id"]] = rec
        got = [
            comparable(records[tp.trial_id]) for tp in plan.trials
        ]
        assert got == reference

    @pytest.fixture(scope="class")
    def reference_fixture(self):
        spec = mixed_spec()
        reference = scalar_reference(spec)
        plan = plan_sweep(spec)
        return plan, reference

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**16),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        scenario=SCENARIOS,
        dithered=st.booleans(),
    )
    def test_one_many_and_sharded_batches_agree(
        self, monkeypatch, seeds, scenario, dithered
    ):
        """N=1 vs N=k: per-trial naive runs, one batch of every trial,
        and shards by power root through ``run_sweep(jobs=2)`` give
        byte-identical records on random small grids."""
        monkeypatch.setattr(ex_mod, "effective_cpus", lambda: 4)
        base = {"bits": 24, "scenario": scenario}
        if dithered:
            base["dithering"] = {"spread_rel": 0.05}
        spec = SweepSpec(
            name="prop-partition",
            base=base,
            grid={"seed": seeds, "receiver": [None, RECEIVER_GRID[0]]},
        )
        reset_chain_cache()
        naive = [comparable(r) for r in run_sweep(spec, naive=True).records]
        plan = plan_sweep(spec)
        reset_chain_cache()
        with execution_scope(cache_enabled=True):
            one_batch = run_trials_batched(plan.trials)
        reset_chain_cache()
        with execution_scope(cache_enabled=True):
            sharded = run_sweep(spec, plan=plan, jobs=2)
        reset_chain_cache()
        assert sharded.stats["shards"] == float(len(seeds))
        assert [comparable(r) for r in one_batch] == naive
        assert [comparable(r) for r in sharded.records] == naive


class TestGoldenCapture:
    def test_batched_chain_renders_the_golden_capture(self):
        """The committed fixed-seed snapshot, through the batched path."""
        from tests.test_golden_trace import golden_path, render_golden_capture
        from repro.em.environment import near_field_scenario
        from repro.chain import tuned_frequency_hz
        from repro.params import TINY
        from repro.systems.laptops import DELL_INSPIRON
        from repro.types import ActivityTrace, Interval

        path = golden_path()
        assert path.exists()
        golden = np.load(path)
        activity = ActivityTrace(
            [
                Interval(0.001, 0.003),
                Interval(0.005, 0.0065),
                Interval(0.007, 0.0075, level=0.5),
            ],
            duration=0.008,
        )
        scenario = near_field_scenario(
            tuned_frequency_hz(DELL_INSPIRON, TINY),
            physics_frequency_hz=1.5 * DELL_INSPIRON.vrm_frequency_hz,
        )
        rng = np.random.default_rng(42)
        entry_state = rng.bit_generator.state
        keys = capture_chain_keys(
            DELL_INSPIRON, activity, scenario, TINY, rng
        )
        with execution_scope(jobs=1, cache_enabled=False):
            resolved = render_captures_batched(
                [
                    ChainRequest(
                        machine=DELL_INSPIRON,
                        activity=activity,
                        scenario=scenario,
                        profile=TINY,
                        allow_c_states=True,
                        allow_p_states=True,
                        vrm_dithering=None,
                        keys=keys,
                        entry_state=entry_state,
                    )
                ]
            )
        capture = resolved[0].capture
        assert capture.samples.dtype == golden["samples"].dtype
        assert np.array_equal(capture.samples, golden["samples"]), (
            "batched chain diverged from the committed golden capture"
        )
        # And from render_capture's batch of one, state for state.
        scalar = render_golden_capture()
        assert np.array_equal(capture.samples, scalar.samples)
        assert capture.sample_rate == scalar.sample_rate
        assert capture.center_frequency == scalar.center_frequency
