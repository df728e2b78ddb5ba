"""Stampede control: per-key locks, probe/reprobe, and the chain path."""

import threading
import time

import numpy as np
import pytest

import repro.exec.cache as cache_mod
from repro.batch.chain import ChainRequest, render_captures_batched
from repro.chain import capture_chain_keys, tuned_frequency_hz
from repro.em.environment import near_field_scenario
from repro.exec.cache import ChainCache
from repro.obs.trace import collect_events
from repro.params import TINY
from repro.systems.laptops import DELL_INSPIRON
from repro.types import ActivityTrace, Interval


@pytest.fixture
def shared_dir(tmp_path):
    return tmp_path / "cache"


class TestProbe:
    def test_probe_reports_layer_without_counting(self, shared_dir):
        cache = ChainCache(max_bytes=2**20, disk_dir=shared_dir)
        assert cache.probe("k" * 64) is None
        cache.put("k" * 64, 123)
        assert cache.probe("k" * 64) == "memory"
        other = ChainCache(max_bytes=2**20, disk_dir=shared_dir)
        assert other.probe("k" * 64) == "disk"
        assert other.stats()["hits"] == 0
        assert other.stats()["misses"] == 0

    def test_probe_memory_only_cache(self):
        cache = ChainCache(max_bytes=2**20)
        cache.put("k" * 64, 1)
        assert cache.probe("k" * 64) == "memory"
        assert cache.probe("x" * 64) is None


class TestLock:
    def test_lock_yields_false_without_disk_layer(self):
        cache = ChainCache(max_bytes=2**20)
        with cache.lock("k" * 64) as locked:
            assert locked is False

    def test_lock_yields_true_with_disk_layer(self, shared_dir):
        cache = ChainCache(max_bytes=2**20, disk_dir=shared_dir)
        with cache.lock("k" * 64) as locked:
            assert locked is True

    def test_lock_excludes_other_cache_instances(self, shared_dir):
        # Two instances sharing the disk dir model two pool workers.
        a = ChainCache(max_bytes=2**20, disk_dir=shared_dir)
        b = ChainCache(max_bytes=2**20, disk_dir=shared_dir)
        key = "k" * 64
        entered = threading.Event()
        order = []

        def contender():
            entered.set()
            with b.lock(key) as locked:
                assert locked
                order.append("b")

        with a.lock(key) as locked:
            assert locked
            thread = threading.Thread(target=contender)
            thread.start()
            entered.wait(timeout=5.0)
            time.sleep(0.05)  # give the contender time to block
            order.append("a")
        thread.join(timeout=5.0)
        assert order == ["a", "b"]

    def test_distinct_keys_do_not_contend(self, shared_dir):
        a = ChainCache(max_bytes=2**20, disk_dir=shared_dir)
        b = ChainCache(max_bytes=2**20, disk_dir=shared_dir)
        with a.lock("k" * 64):
            done = threading.Event()

            def other():
                with b.lock("j" * 64):
                    done.set()

            thread = threading.Thread(target=other)
            thread.start()
            assert done.wait(timeout=5.0)
            thread.join(timeout=5.0)


class TestReprobe:
    def test_reprobe_serves_published_value(self, shared_dir):
        a = ChainCache(max_bytes=2**20, disk_dir=shared_dir)
        b = ChainCache(max_bytes=2**20, disk_dir=shared_dir)
        key = "k" * 64
        assert b.get(key) is None  # the losing worker's initial miss
        a.put(key, ("value", 42))  # winner publishes meanwhile
        hit = b.reprobe(key)
        assert hit == ("value", 42)
        assert b.stats()["hits"] == 1

    def test_reprobe_miss_returns_none(self, shared_dir):
        cache = ChainCache(max_bytes=2**20, disk_dir=shared_dir)
        assert cache.reprobe("k" * 64) is None


ANALOG_SPANS = ("pmu", "vrm", "emission", "propagation", "sdr")


def _request(seed=7):
    """One tiny capture request for the chain resolver."""
    activity = ActivityTrace([Interval(0.001, 0.003)], duration=0.005)
    scenario = near_field_scenario(tuned_frequency_hz(DELL_INSPIRON, TINY))
    rng = np.random.default_rng(seed)
    return ChainRequest(
        machine=DELL_INSPIRON,
        activity=activity,
        scenario=scenario,
        profile=TINY,
        allow_c_states=True,
        allow_p_states=True,
        vrm_dithering=None,
        keys=capture_chain_keys(DELL_INSPIRON, activity, scenario, TINY, rng),
        entry_state=rng.bit_generator.state,
    )


def _resolve(monkeypatch, cache, request):
    """Resolve one request against ``cache`` (one modelled worker)."""
    monkeypatch.setattr(cache_mod, "get_chain_cache", lambda: cache)
    (resolved,) = render_captures_batched([request])
    return resolved


def _computed(events):
    return [
        e
        for e in events
        if e["event"] == "span" and e["name"] in ANALOG_SPANS
    ]


class TestComputeThroughLock:
    """The deterministic two-worker stampede scenario, single-process,
    through the chain resolver: worker A publishes the whole chain
    while worker B's capture probe is already past, so B misses the
    capture, then finds it under the capture key's lock."""

    def test_loser_is_served_and_does_not_compute(
        self, shared_dir, monkeypatch
    ):
        a = ChainCache(max_bytes=2**26, disk_dir=shared_dir)
        b = ChainCache(max_bytes=2**26, disk_dir=shared_dir)
        request = _request()
        winner = _resolve(monkeypatch, a, request)

        # B's first probe (the capture) ran before A published.
        real_get = b.get
        raced = []

        def racing_get(key):
            if not raced:
                raced.append(key)
                return None
            return real_get(key)

        monkeypatch.setattr(b, "get", racing_get)
        with collect_events() as events:
            loser = _resolve(monkeypatch, b, request)
        assert raced == [request.keys.capture]
        assert _computed(events) == []
        assert loser.source == "cache"
        assert np.array_equal(loser.capture.samples, winner.capture.samples)
        # RNG exit state is the winner's.
        assert loser.exit_state["state"] == winner.exit_state["state"]
        avoided = [e for e in events if e["event"] == "cache.stampede_avoided"]
        assert len(avoided) == 1
        assert avoided[0]["stage"] == "sdr"
        assert avoided[0]["key"] == request.keys.capture[:12]

    def test_winner_computes_and_publishes(self, shared_dir, monkeypatch):
        cache = ChainCache(max_bytes=2**26, disk_dir=shared_dir)
        request = _request()
        with collect_events() as events:
            resolved = _resolve(monkeypatch, cache, request)
        assert resolved.source == "computed"
        assert {e["name"] for e in _computed(events)} == set(ANALOG_SPANS)
        assert not [
            e for e in events if e["event"] == "cache.stampede_avoided"
        ]
        # Published for the next worker, with the exit RNG state.
        other = ChainCache(max_bytes=2**26, disk_dir=shared_dir)
        stored, stored_state = other.get(request.keys.capture)
        assert np.array_equal(stored.samples, resolved.capture.samples)
        assert stored_state["state"] == resolved.exit_state["state"]

    def test_memory_only_cache_still_computes_once(self, monkeypatch):
        cache = ChainCache(max_bytes=2**26)
        request = _request()
        first = _resolve(monkeypatch, cache, request)
        with collect_events() as events:
            second = _resolve(monkeypatch, cache, request)
        assert first.source == "computed"
        assert second.source == "cache"
        assert _computed(events) == []
        assert second.exit_state["state"] == first.exit_state["state"]
