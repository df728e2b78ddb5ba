"""The adaptive executor: the decision table and its trace event.

The decision table (DESIGN.md §14) is the contract: callers state the
job shape, the executor picks serial / batched-serial / processes.
Every branch is pinned here, as is the trace event that records *why*.
"""

import pytest

import repro.exec.executor as ex_mod
from repro.exec.executor import choose_executor, effective_cpus
from repro.obs.trace import collect_events


def _cpus(monkeypatch, n):
    monkeypatch.setattr(ex_mod, "effective_cpus", lambda: n)


class TestDecisionTable:
    def test_single_task_is_serial(self, monkeypatch):
        _cpus(monkeypatch, 8)
        d = choose_executor(1, jobs=8)
        assert (d.mode, d.jobs) == ("serial", 1)

    def test_single_task_batchable_reports_batched_serial(self, monkeypatch):
        _cpus(monkeypatch, 8)
        assert choose_executor(1, jobs=8, batchable=True).mode == "batched-serial"

    def test_jobs_one_is_the_reference_path(self, monkeypatch):
        _cpus(monkeypatch, 8)
        d = choose_executor(16, jobs=1, batchable=True)
        assert (d.mode, d.jobs) == ("batched-serial", 1)

    def test_single_cpu_forces_batched_serial(self, monkeypatch):
        _cpus(monkeypatch, 1)
        d = choose_executor(16, jobs=8, batchable=True)
        assert (d.mode, d.jobs) == ("batched-serial", 1)
        assert "single CPU" in d.reason

    def test_jobs_capped_by_tasks(self, monkeypatch):
        _cpus(monkeypatch, 16)
        d = choose_executor(3, jobs=16)
        assert (d.mode, d.jobs) == ("processes", 3)

    def test_invalid_jobs_rejected(self, monkeypatch):
        _cpus(monkeypatch, 4)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            choose_executor(4, jobs=0)

    def test_jobs_defaults_to_execution_config(self, monkeypatch):
        from repro.exec.context import execution_scope

        _cpus(monkeypatch, 1)
        with execution_scope(jobs=1):
            assert choose_executor(4).jobs == 1

    def test_every_decision_is_traced(self, monkeypatch):
        _cpus(monkeypatch, 1)
        with collect_events() as events:
            d = choose_executor(4, jobs=4, batchable=True)
        traced = [e for e in events if e.get("event") == "batch.executor"]
        assert len(traced) == 1
        assert traced[0]["mode"] == d.mode
        assert traced[0]["cpus"] == 1
        assert traced[0]["tasks"] == 4
        assert traced[0]["reason"] == d.reason


class TestEffectiveCpus:
    def test_returns_positive_int(self):
        assert effective_cpus() >= 1
