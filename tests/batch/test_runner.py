"""The sweep engine's one lane: trace shape and executor wiring.

Record bit-identity lives in test_identity.  Here: the batched runner
emits its ``batch.*`` spans, the engine runs it in-process unless the
adaptive executor picks processes (then over shards split by power
root), naive mode never touches it, and the CLI mode line says which
way it ran.
"""

from collections import Counter

import pytest

import repro.exec.executor as ex_mod
from repro.exec.cache import reset_chain_cache
from repro.exec.context import execution_scope
from repro.obs.trace import collect_events
from repro.sweep.engine import run_sweep
from repro.sweep.presets import RECEIVER_GRID
from repro.sweep.spec import SweepSpec


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_chain_cache()
    yield
    reset_chain_cache()


def receiver_spec(n=3, bits=24, seed=0):
    return SweepSpec(
        name="test-batch-runner",
        base={"bits": bits, "seed": seed},
        zips=[{"receiver": [None] + RECEIVER_GRID[: n - 1]}],
    )


def two_root_spec(bits=24):
    """Two seeds (two power roots), two receivers each."""
    return SweepSpec(
        name="test-batch-shards",
        base={"bits": bits},
        grid={"seed": [0, 1], "receiver": [None, RECEIVER_GRID[0]]},
    )


def comparable(record):
    out = dict(record)
    out.pop("elapsed_s")
    return out


class TestTraceParity:
    """The batched lane's own instrumentation is in the trace."""

    def test_batch_spans_are_emitted(self):
        with execution_scope(cache_enabled=True):
            with collect_events() as events:
                run_sweep(receiver_spec(), jobs=1)
        names = Counter(
            e["name"] for e in events if e.get("event") == "span"
        )
        assert names["batch.chain"] == 1
        assert names["batch.decode"] >= 1
        assert names["batch.kernel"] >= 1


class TestRunSweepWiring:
    def test_auto_engages_on_single_cpu(self, monkeypatch):
        monkeypatch.setattr(ex_mod, "effective_cpus", lambda: 1)
        with execution_scope(cache_enabled=True):
            outcome = run_sweep(receiver_spec(), jobs=4)
        # One CPU: the whole batch runs in-process, as one shard.
        assert outcome.stats["shards"] == 1.0

    def test_many_cpus_shard_by_power_root(self, monkeypatch):
        monkeypatch.setattr(ex_mod, "effective_cpus", lambda: 4)
        spec = two_root_spec()
        naive = run_sweep(spec, naive=True)
        with execution_scope(cache_enabled=True):
            outcome = run_sweep(spec, jobs=2)
        assert outcome.stats["shards"] == 2.0
        assert [comparable(r) for r in outcome.records] == [
            comparable(r) for r in naive.records
        ]

    def test_naive_never_batches(self):
        with collect_events() as events:
            outcome = run_sweep(receiver_spec(), naive=True)
        assert outcome.stats["shards"] == 0.0
        assert not [e for e in events if e.get("name") == "batch.decode"]

    def test_engine_works_without_cache(self):
        with execution_scope(cache_enabled=False):
            outcome = run_sweep(receiver_spec(), jobs=1)
        assert outcome.stats["shards"] == 1.0
        assert outcome.stats["warm_groups"] == 0.0


class TestCli:
    def test_sweep_mode_line(self, tmp_path, capsys):
        from repro.cli import main

        spec = receiver_spec(n=2)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(__import__("json").dumps(spec.to_mapping()))
        rc = main(
            [
                "sweep",
                str(spec_path),
                "--results",
                str(tmp_path / "out.jsonl"),
                "--jobs",
                "1",
            ]
        )
        assert rc == 0
        assert "engine: 2 executed" in capsys.readouterr().out
