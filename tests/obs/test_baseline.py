"""Tests for the baseline regression gate.

The acceptance bar: recording then comparing passes, and a 1% physics
perturbation (here: the emission amplitude) demonstrably fails the
gate with a per-metric diff.
"""

import json

import pytest

from repro.obs.baseline import (
    BaselineReport,
    compare,
    compare_metrics,
    record,
    run_scenario,
)
from repro.vrm.emission import EmissionModel


class TestCompareMetrics:
    def test_within_tolerance(self):
        c = compare_metrics({"a": 1.0, "b": 2.0}, {"a": 1.0 + 1e-9, "b": 2.0}, "s")
        assert c.ok
        assert c.n_checked == 2

    def test_drift_detected_with_diff(self):
        c = compare_metrics({"a": 1.0}, {"a": 1.01}, "s")
        assert not c.ok
        (diff,) = c.diffs
        assert diff.metric == "a"
        assert diff.rel_error == pytest.approx(0.01)
        assert "expected 1.0" in diff.render()

    def test_missing_metric_fails_extra_does_not(self):
        c = compare_metrics({"a": 1.0}, {"b": 1.0}, "s")
        assert not c.ok
        assert c.missing == ["a"]
        c2 = compare_metrics({"a": 1.0}, {"a": 1.0, "b": 5.0}, "s")
        assert c2.ok
        assert c2.extra == ["b"]


class TestScenarios:
    def test_scenarios_are_deterministic(self):
        first = run_scenario("chain-emission-tiny")
        second = run_scenario("chain-emission-tiny")
        assert first == second
        assert "chain.emission.rms.mean" in first

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown baseline scenario"):
            run_scenario("nope")


class TestRecordCompare:
    def test_record_then_compare_passes(self, tmp_path):
        paths = record(tmp_path, scenarios=["chain-emission-tiny"])
        assert [p.name for p in paths] == ["chain-emission-tiny.json"]
        payload = json.loads(paths[0].read_text())
        assert payload["chain_schema"] == "chain-v1"
        report = compare(tmp_path, scenarios=["chain-emission-tiny"])
        assert report.ok
        assert "regress: OK" in report.render()

    def test_missing_baseline_fails_with_instructions(self, tmp_path):
        report = compare(tmp_path, scenarios=["chain-emission-tiny"])
        assert not report.ok
        assert "--record" in report.render()

    def test_schema_mismatch_refuses_comparison(self, tmp_path):
        (path,) = record(tmp_path, scenarios=["chain-emission-tiny"])
        payload = json.loads(path.read_text())
        payload["chain_schema"] = "chain-v0"
        path.write_text(json.dumps(payload))
        report = compare(tmp_path, scenarios=["chain-emission-tiny"])
        assert not report.ok
        assert "re-record" in report.render()

    def test_one_percent_emission_perturbation_fails_gate(
        self, tmp_path, monkeypatch
    ):
        import repro.batch.chain as chain_mod

        record(tmp_path, scenarios=["chain-emission-tiny"])

        def perturbed(field_gain):
            return EmissionModel(field_gain=1.01 * field_gain)

        monkeypatch.setattr(chain_mod, "EmissionModel", perturbed)
        report = compare(tmp_path, scenarios=["chain-emission-tiny"])
        assert not report.ok
        rendered = report.render()
        assert "chain.emission.rms" in rendered
        assert "regress: FAILED" in rendered

    def test_report_aggregates_scenarios(self):
        report = BaselineReport(
            comparisons=[
                compare_metrics({"a": 1.0}, {"a": 1.0}, "s1"),
                compare_metrics({"a": 1.0}, {"a": 2.0}, "s2"),
            ]
        )
        assert not report.ok
        assert "ok   s1" in report.render()
        assert "FAIL s2" in report.render()


class TestCommittedBaselines:
    def test_committed_chain_emission_baseline_matches(self, repo_baselines):
        # The cheapest committed baseline must hold for the working
        # tree; the full gate (all scenarios) runs as `make regress`.
        report = compare(repo_baselines, scenarios=["chain-emission-tiny"])
        assert report.ok, report.render()


@pytest.fixture
def repo_baselines():
    from pathlib import Path

    directory = Path(__file__).parents[2] / "baselines"
    if not directory.exists():
        pytest.skip("no committed baselines directory")
    return directory
