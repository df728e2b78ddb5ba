"""Tests for the content-addressed chain cache."""

import dataclasses

import numpy as np
import pytest

from repro.exec.cache import (
    ChainCache,
    fingerprint,
    get_chain_cache,
    reset_chain_cache,
)
from repro.countermeasures import VrmDithering
from repro.em.environment import through_wall_scenario
from repro.exec.context import execution_scope
from repro.params import TINY, REDUCED
from repro.scenario import get_scenario
from repro.systems.laptops import DELL_INSPIRON, LENOVO_THINKPAD


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_chain_cache()
    yield
    reset_chain_cache()


class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint("a", 1, 2.5) == fingerprint("a", 1, 2.5)

    def test_sensitive_to_value_changes(self):
        assert fingerprint("a", 1) != fingerprint("a", 2)
        assert fingerprint(1.0) != fingerprint(1.0000000001)

    def test_type_tags_prevent_confusion(self):
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint(None) != fingerprint("None")

    def test_arrays_hash_contents(self):
        a = np.arange(5, dtype=float)
        b = np.arange(5, dtype=float)
        assert fingerprint(a) == fingerprint(b)
        b[2] = 99.0
        assert fingerprint(a) != fingerprint(b)

    def test_array_dtype_and_shape_matter(self):
        a = np.zeros(4, dtype=np.float64)
        assert fingerprint(a) != fingerprint(a.astype(np.float32))
        assert fingerprint(a) != fingerprint(a.reshape(2, 2))

    def test_dataclasses_hash_fields(self):
        assert fingerprint(DELL_INSPIRON) == fingerprint(DELL_INSPIRON)
        assert fingerprint(DELL_INSPIRON) != fingerprint(LENOVO_THINKPAD)
        assert fingerprint(TINY) != fingerprint(REDUCED)

    def test_rng_state_dict_hashable(self):
        rng = np.random.default_rng(3)
        before = fingerprint(rng.bit_generator.state)
        assert before == fingerprint(np.random.default_rng(3).bit_generator.state)
        rng.random()
        assert fingerprint(rng.bit_generator.state) != before


def _keyed_dataclasses():
    """One instance of every dataclass reachable from the chain and
    scenario key inputs, found by walking their fields."""
    found = {}
    queue = [
        TINY,
        DELL_INSPIRON,
        through_wall_scenario(band_center_hz=1e5),
        VrmDithering(),
        get_scenario("clockmod-fsk").spec,
    ]
    while queue:
        obj = queue.pop()
        if dataclasses.is_dataclass(obj):
            found.setdefault(type(obj).__qualname__, obj)
            queue.extend(vars(obj).values())
        elif isinstance(obj, (list, tuple)):
            queue.extend(obj)
    return found


KEYED = _keyed_dataclasses()


def _reshaped(obj, change=None):
    """``obj`` rebuilt as a new class with the same qualname and values,
    its fields ``"added"`` to, ``"renamed"`` or ``"reordered"``."""
    names = [f.name for f in dataclasses.fields(obj)]
    values = [getattr(obj, name) for name in names]
    if change == "added":
        names.append("added_field")
        values.append(0.0)
    elif change == "renamed":
        names[0] += "_renamed"
    elif change == "reordered":
        names[:2], values[:2] = names[1::-1], values[1::-1]
    clone = dataclasses.make_dataclass(type(obj).__name__, names)
    clone.__qualname__ = type(obj).__qualname__
    return clone(*values)


class TestDataclassShape:
    """A keyed dataclass whose fields change can never fingerprint like
    the old shape, so a stale disk-cache entry cannot be served for it
    (no CHAIN_SCHEMA bump needed for a shape change)."""

    def test_walk_reaches_every_keyed_dataclass(self):
        assert {
            "ImpulsiveNoise",
            "InterruptProfile",
            "LoopAntenna",
            "Machine",
            "NoiseEnvironment",
            "PathModel",
            "Scenario",
            "ScenarioSpec",
            "SimProfile",
            "ToneInterferer",
            "VrmDithering",
            "Wall",
        } <= set(KEYED)

    @pytest.mark.parametrize("qualname", sorted(KEYED))
    def test_same_shape_clone_fingerprints_alike(self, qualname):
        obj = KEYED[qualname]
        assert fingerprint(_reshaped(obj)) == fingerprint(obj)

    @pytest.mark.parametrize(
        "qualname,change",
        [
            (qualname, change)
            for qualname in sorted(KEYED)
            for change in ("added", "renamed", "reordered")
            # Reordering needs two fields.
            if change != "reordered"
            or len(dataclasses.fields(KEYED[qualname])) > 1
        ],
    )
    def test_shape_change_changes_fingerprint(self, qualname, change):
        obj = KEYED[qualname]
        assert fingerprint(_reshaped(obj, change)) != fingerprint(obj)


class TestLru:
    def test_roundtrip_and_stats(self):
        cache = ChainCache(max_bytes=1 << 20)
        assert cache.get("k") is None
        cache.put("k", np.arange(10.0))
        out = cache.get("k")
        assert np.array_equal(out, np.arange(10.0))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_returned_value_is_a_copy(self):
        cache = ChainCache(max_bytes=1 << 20)
        cache.put("k", np.zeros(4))
        first = cache.get("k")
        first[:] = 7.0
        assert np.all(cache.get("k") == 0.0)

    def test_evicts_least_recently_used(self):
        one_kb = np.zeros(128)  # 1 KiB of float64 + overhead
        cache = ChainCache(max_bytes=3000)
        cache.put("a", one_kb)
        cache.put("b", one_kb)
        assert cache.get("a") is not None  # refresh a; b is now LRU
        cache.put("c", one_kb)
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_oversized_value_not_retained(self):
        cache = ChainCache(max_bytes=100)
        cache.put("big", np.zeros(1000))
        assert cache.get("big") is None

    def test_clear(self):
        cache = ChainCache(max_bytes=1 << 20)
        cache.put("k", 1.0)
        cache.clear()
        assert cache.get("k") is None


class TestDiskLayer:
    def test_survives_memory_clear(self, tmp_path):
        cache = ChainCache(max_bytes=1 << 20, disk_dir=tmp_path)
        cache.put("deadbeef", (np.arange(3.0), {"s": 1}))
        cache.clear()
        arr, state = cache.get("deadbeef")
        assert np.array_equal(arr, np.arange(3.0))
        assert state == {"s": 1}

    def test_shared_between_instances(self, tmp_path):
        ChainCache(max_bytes=1 << 20, disk_dir=tmp_path).put("cafe", 42.0)
        other = ChainCache(max_bytes=1 << 20, disk_dir=tmp_path)
        assert other.get("cafe") == 42.0

    def test_torn_file_is_a_miss(self, tmp_path):
        cache = ChainCache(max_bytes=1 << 20, disk_dir=tmp_path)
        path = tmp_path / "ab" / "abcd.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x80\x04not a pickle")
        assert cache.get("abcd") is None

    def test_newer_protocol_file_is_a_miss(self, tmp_path):
        # A newer Python sharing the cache dir writes a protocol this
        # one cannot read; pickle raises ValueError, not UnpicklingError.
        cache = ChainCache(max_bytes=1 << 20, disk_dir=tmp_path)
        path = tmp_path / "ab" / "abcd.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x80\x09foreign")
        assert cache.get("abcd") is None


class TestConfigBinding:
    def test_disabled_config_returns_none(self):
        with execution_scope(cache_enabled=False):
            assert get_chain_cache() is None

    def test_enabled_config_returns_singleton(self):
        with execution_scope(cache_enabled=True):
            assert get_chain_cache() is get_chain_cache()

    def test_rebuilt_when_directory_changes(self, tmp_path):
        with execution_scope(cache_enabled=True):
            first = get_chain_cache()
        with execution_scope(cache_enabled=True, cache_dir=str(tmp_path)):
            second = get_chain_cache()
        assert first is not second
        assert second.disk_dir == tmp_path
