"""Content-addressed cache for expensive chain intermediates.

Keys are SHA-256 digests of a canonical byte encoding of *everything*
that determines a stage's output: the machine, the activity trace, the
simulation profile, the BIOS state flags, the dithering configuration,
and - crucially - the RNG state on entry to the stage.  Because each
cached value also stores the RNG state on *exit*, a cache hit can
restore the generator exactly where a fresh computation would have left
it, so cached and uncached runs are bit-identical all the way down the
chain.

Two layers:

* an in-memory LRU bounded by a byte budget (per process);
* an optional on-disk layer (``cache_dir``), shared between worker
  processes and across runs, written atomically.

When the disk layer is active, :meth:`ChainCache.lock` provides a
per-key advisory file lock so concurrent workers that miss the same key
do not all compute it (the cache-stampede problem): the first one in
computes and publishes, the rest block on the lock and then re-probe
(:meth:`ChainCache.reprobe`) before falling back to computing.
:meth:`ChainCache.probe` answers "which layer holds this key" without
deserializing the value, which the sweep planner uses to predict hits.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Tuple

try:  # POSIX only; on other platforms per-key locks degrade to no-ops
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

import numpy as np

from ..obs.trace import key_prefix, trace_event
from .context import get_execution_config

#: Bump when the chain's stage semantics change, so stale disk caches
#: can never serve outputs computed by an older model.
CHAIN_SCHEMA = "chain-v1"


# ---------------------------------------------------------------------------
# Stable fingerprinting


def _update(h: hashlib._Hash, obj: Any) -> None:
    """Feed a canonical encoding of ``obj`` into hash ``h``.

    Handles the types that appear in chain-stage keys: primitives,
    numpy arrays, dataclasses (recursively), and the dict/list/tuple
    containers used by ``Generator.bit_generator.state``.
    """
    if obj is None:
        h.update(b"\x00N")
    elif isinstance(obj, bool):
        h.update(b"\x00B" + (b"1" if obj else b"0"))
    elif isinstance(obj, (int, np.integer)):
        h.update(b"\x00I" + repr(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        # repr() round-trips doubles exactly.
        h.update(b"\x00F" + repr(float(obj)).encode())
    elif isinstance(obj, str):
        h.update(b"\x00S" + obj.encode("utf-8"))
    elif isinstance(obj, bytes):
        h.update(b"\x00Y" + obj)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"\x00A" + arr.dtype.str.encode() + repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"\x00D" + type(obj).__qualname__.encode())
        for f in dataclasses.fields(obj):
            h.update(b"\x00f" + f.name.encode())
            _update(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(b"\x00M")
        for key in sorted(obj, key=repr):
            _update(h, key)
            _update(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"\x00L")
        for item in obj:
            _update(h, item)
    else:
        h.update(b"\x00R" + repr(obj).encode())


def fingerprint(*objs: Any) -> str:
    """Stable hex digest of a tuple of values (see :func:`_update`)."""
    h = hashlib.sha256()
    for obj in objs:
        _update(h, obj)
    return h.hexdigest()


def _sizeof(obj: Any) -> int:
    """Approximate retained bytes of a cached value (for the LRU budget)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 128
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return 128 + sum(
            _sizeof(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, dict):
        return 64 + sum(_sizeof(k) + _sizeof(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return 64 + sum(_sizeof(item) for item in obj)
    return 64


# ---------------------------------------------------------------------------
# The cache proper


class ChainCache:
    """In-memory LRU plus optional on-disk layer, content-addressed.

    Values are deep-copied on the way out so a cached array can never be
    corrupted by a downstream in-place operation.
    """

    def __init__(
        self, max_bytes: int, disk_dir: Optional[os.PathLike] = None
    ) -> None:
        self.max_bytes = int(max_bytes)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    # -- public API --------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """Look ``key`` up in memory, then on disk; None on miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            trace_event("cache", op="get", key=key_prefix(key), hit=True,
                        layer="memory")
            return copy.deepcopy(entry[0])
        value = self._disk_read(key)
        if value is not None:
            self._remember(key, value)
            self.hits += 1
            trace_event("cache", op="get", key=key_prefix(key), hit=True,
                        layer="disk")
            return copy.deepcopy(value)
        self.misses += 1
        trace_event("cache", op="get", key=key_prefix(key), hit=False)
        return None

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` (memory always; disk when configured)."""
        self._remember(key, copy.deepcopy(value))
        self._disk_write(key, value)
        trace_event("cache", op="put", key=key_prefix(key))

    def probe(self, key: str) -> Optional[str]:
        """Which layer holds ``key`` ("memory"/"disk"), without reading it.

        Unlike :meth:`get` this neither deserializes the value nor
        counts toward hit/miss statistics, so planners can ask "would
        this be a hit?" cheaply and without skewing the numbers.
        """
        if key in self._entries:
            return "memory"
        path = self._disk_path(key)
        if path is not None and path.exists():
            return "disk"
        return None

    def reprobe(self, key: str) -> Optional[Any]:
        """Re-read ``key`` from the disk layer after waiting on its lock.

        Used on the loser's side of a stampede: the first probe missed,
        the per-key lock was contended, and by the time it was acquired
        the winner may have published the value.  Memory is skipped (a
        same-process writer would have been seen by :meth:`get`) and a
        find counts as a hit.
        """
        value = self._disk_read(key)
        if value is None:
            return None
        self._remember(key, value)
        self.hits += 1
        trace_event("cache", op="get", key=key_prefix(key), hit=True,
                    layer="disk-locked")
        return copy.deepcopy(value)

    @contextmanager
    def lock(self, key: str) -> Iterator[bool]:
        """Advisory per-key lock for stampede control; yields whether a
        real lock was taken.

        Only meaningful with a disk layer (without one, caches are
        process-private and cannot stampede across workers); memory-only
        caches and non-POSIX hosts yield ``False`` and synchronise
        nothing.
        """
        if self.disk_dir is None or fcntl is None:
            yield False
            return
        lock_dir = self.disk_dir / "locks"
        try:
            lock_dir.mkdir(parents=True, exist_ok=True)
            handle = open(lock_dir / f"{key}.lock", "a+")
        except OSError:
            yield False  # lock dir unavailable: degrade to unlocked
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield True
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "bytes": self._bytes,
        }

    # -- internals ---------------------------------------------------------

    def _remember(self, key: str, value: Any) -> None:
        size = _sizeof(value)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        if size > self.max_bytes:
            return  # would evict everything else; not worth holding
        self._entries[key] = (value, size)
        self._bytes += size
        while self._bytes > self.max_bytes and self._entries:
            _, (_, evicted) = self._entries.popitem(last=False)
            self._bytes -= evicted

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / key[:2] / f"{key}.pkl"

    def _disk_read(self, key: str) -> Optional[Any]:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError):
            return None  # torn or foreign file: treat as a miss

    def _disk_write(self, key: str, value: Any) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)  # atomic: readers never see a torn file
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass  # disk layer is best-effort; memory layer already has it


# ---------------------------------------------------------------------------
# Config-bound singleton

_cache: Optional[ChainCache] = None
_cache_signature: Optional[tuple] = None


def get_chain_cache() -> Optional[ChainCache]:
    """The cache for the active configuration, or None when disabled.

    Rebuilt (empty) whenever the configured directory or budget
    changes, so ``--no-cache`` / ``--cache-dir`` take effect mid-process.
    """
    global _cache, _cache_signature
    config = get_execution_config()
    if not config.cache_enabled:
        return None
    signature = (config.cache_dir, config.cache_bytes)
    if _cache is None or signature != _cache_signature:
        _cache = ChainCache(config.cache_bytes, config.cache_dir)
        _cache_signature = signature
    return _cache


def reset_chain_cache() -> None:
    """Drop the process's cache instance (tests and pool workers)."""
    global _cache, _cache_signature
    _cache = None
    _cache_signature = None
