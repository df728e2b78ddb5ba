"""Tests for the structured tracer."""

import io
import json
import time

import numpy as np
import pytest

from repro.batch.chain import ChainRequest, render_captures_batched
from repro.chain import capture_chain_keys, render_emission, tuned_frequency_hz
from repro.em.environment import near_field_scenario
from repro.exec.context import execution_scope
from repro.obs.trace import (
    REGISTERED_SPANS,
    collect_events,
    collect_span_times,
    key_prefix,
    merge_events,
    rng_digest,
    span,
    trace_event,
    tracing_active,
    tracing_scope,
)
from repro.params import TINY
from repro.systems.laptops import DELL_INSPIRON
from repro.types import ActivityTrace, Interval


def _events(buf: io.StringIO):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestTracerBasics:
    def test_off_by_default(self):
        assert not tracing_active()
        trace_event("noop", value=1)  # must be a silent no-op

    def test_scope_writes_jsonl(self):
        buf = io.StringIO()
        with tracing_scope(buf):
            assert tracing_active()
            trace_event("ping", value=3)
        events = _events(buf)
        assert len(events) == 1
        assert events[0]["event"] == "ping"
        assert events[0]["value"] == 3
        assert events[0]["ts"] >= 0
        assert events[0]["pid"] > 0
        assert not tracing_active()

    def test_scope_opens_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing_scope(str(path)):
            trace_event("ping")
        assert json.loads(path.read_text())["event"] == "ping"

    def test_span_records_duration_and_lazy_attrs(self):
        buf = io.StringIO()
        calls = []
        with tracing_scope(buf):
            with span("pmu", {"cache": "miss"}, lazy=lambda: calls.append(1) or {"extra": 7}):
                pass
        (event,) = _events(buf)
        assert event["name"] == "pmu"
        assert event["cache"] == "miss"
        assert event["extra"] == 7
        assert event["duration_s"] >= 0
        assert calls == [1]

    def test_span_lazy_not_called_when_off(self):
        with span("work", lazy=lambda: pytest.fail("must stay lazy")):
            pass

    def test_unregistered_span_name_raises_only_when_tracing(self):
        assert "not.registered" not in REGISTERED_SPANS
        body = []
        with span("not.registered"):  # tracing off: name never looked at
            body.append("off")
        buf = io.StringIO()
        with tracing_scope(buf):
            with pytest.raises(ValueError, match="not.registered"):
                with span("not.registered"):
                    body.append("on")
        assert body == ["off"]
        assert _events(buf) == []

    def test_numpy_values_coerced(self):
        buf = io.StringIO()
        with tracing_scope(buf):
            trace_event("n", count=np.int64(4), rate=np.float64(0.5))
        (event,) = _events(buf)
        assert event["count"] == 4
        assert event["rate"] == 0.5

    def test_key_prefix(self):
        assert key_prefix(None) is None
        assert key_prefix("ab" * 32) == "abababababab"

    def test_rng_digest_tracks_state(self):
        rng = np.random.default_rng(0)
        before = rng_digest(rng)
        assert rng_digest(np.random.default_rng(0)) == before
        rng.random()
        assert rng_digest(rng) != before


class TestSpanTimesWithoutSink:
    def test_lazy_and_point_events_need_a_sink(self):
        with collect_span_times() as times:
            assert not tracing_active()
            with span("pmu", lazy=lambda: pytest.fail("must stay lazy")):
                trace_event("ping", value=1)
        assert set(times) == {"pmu"}

    def test_unregistered_name_raises_under_collector(self):
        with collect_span_times():
            with pytest.raises(ValueError, match="not.registered"):
                with span("not.registered"):
                    pass

    def test_kernel_spans_account_for_a_chain_render(self):
        activity = ActivityTrace(
            [Interval(0.001, 0.003), Interval(0.005, 0.0065)], duration=0.008
        )
        scenario = near_field_scenario(tuned_frequency_hz(DELL_INSPIRON, TINY))
        requests = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            entry_state = rng.bit_generator.state
            requests.append(
                ChainRequest(
                    machine=DELL_INSPIRON,
                    activity=activity,
                    scenario=scenario,
                    profile=TINY,
                    allow_c_states=True,
                    allow_p_states=True,
                    vrm_dithering=None,
                    keys=capture_chain_keys(
                        DELL_INSPIRON, activity, scenario, TINY, rng
                    ),
                    entry_state=entry_state,
                )
            )
        with execution_scope(jobs=1, cache_enabled=False):
            with collect_span_times() as times:
                started = time.perf_counter()
                render_captures_batched(requests)
                wall = time.perf_counter() - started
        assert {"batch.kernel.convolve", "batch.kernel.downconvert"} <= set(
            times
        )
        assert "batch.kernel" not in times
        assert sum(times.values()) >= 0.8 * wall


class TestWorkerMerging:
    def test_collect_and_merge(self):
        with collect_events() as buffered:
            trace_event("inner", step=1)
        assert buffered[0]["event"] == "inner"
        buf = io.StringIO()
        with tracing_scope(buf):
            merge_events(buffered)
        (event,) = _events(buf)
        assert event == buffered[0]  # replayed verbatim, own timeline

    def test_merge_without_tracer_is_noop(self):
        merge_events([{"event": "orphan"}])


class TestChainSpans:
    def test_stages_and_cache_disposition(self):
        activity = ActivityTrace([Interval(0.001, 0.003)], duration=0.005)
        buf = io.StringIO()
        with execution_scope(cache_enabled=True), tracing_scope(buf):
            render_emission(
                DELL_INSPIRON, activity, TINY, np.random.default_rng(1)
            )
            render_emission(
                DELL_INSPIRON, activity, TINY, np.random.default_rng(1)
            )
        events = _events(buf)
        spans = [
            e
            for e in events
            if e["event"] == "span" and not e["name"].startswith("batch.")
        ]
        stages = [e for e in events if e["event"] == "stage"]
        # First render computes (spans tagged miss); second hits.
        assert {s["name"] for s in spans} >= {"pmu", "vrm", "emission"}
        assert all(s["cache"] == "miss" for s in spans)
        assert any(s["cache"] == "hit" for s in stages)
        hit = next(s for s in stages if s["cache"] == "hit")
        assert len(hit["key"]) == 12
        assert len(hit["rng"]) == 12
