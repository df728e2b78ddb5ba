"""Structured stage tracing: JSONL span and point events.

Observability counterpart of :mod:`repro.exec.timing`: where the timing
collector answers "how long did each stage take in aggregate", the
tracer answers "what actually happened, in order" - one JSON object per
line, safe to ``tail -f`` while a long batch runs and trivial to load
into pandas afterwards.

Event shape
-----------
Every event carries ``ts`` (seconds since the tracer opened, per
process), ``pid`` and ``event``; the rest depends on the kind::

    {"ts": 0.031, "pid": 412, "event": "span", "name": "pmu",
     "duration_s": 0.012, "key": "9f31c2d4a0b1", "cache": "miss",
     "rng": "1c9a7e0d44f2"}
    {"ts": 0.044, "pid": 412, "event": "cache", "op": "get",
     "key": "9f31c2d4a0b1", "hit": true}
    {"ts": 0.002, "pid": 412, "event": "warning",
     "kind": "pool-serial-fallback", ...}

The chain resolver (``batch/chain.py``) emits one span per computed
analog stage (with the stage's cache key prefix, miss/off disposition
and an RNG-state digest) and one ``stage`` event per cache hit, the cache
emits get/put events, the pool emits fan-out spans and fallback
warnings, and the experiment runner brackets each experiment.

The tracer lives in a :mod:`contextvars` variable; every emit helper is
a single ``ContextVar.get`` + ``None`` check when tracing is off, so
the instrumented hot paths cost nothing in normal runs.  Worker
processes buffer their events (:func:`collect_events`) and the pool
merges them into the parent's tracer, preserving each event's own
per-process timeline.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

_tracer: ContextVar[Optional["Tracer"]] = ContextVar(
    "repro_tracer", default=None
)

#: Hex digits kept when abbreviating a 64-char cache key for an event.
KEY_PREFIX_LEN = 12

#: Every span name the code base may open.  While tracing is on,
#: :func:`span` raises for any other name, so a typo'd or ad-hoc span
#: name fails the first traced run instead of silently fragmenting the
#: trace stream; ``tests/obs/test_span_conformance.py`` checks that
#: every name here is emitted.  Add the name here (alphabetical) when
#: introducing a new span kind.
REGISTERED_SPANS = frozenset(
    {
        "batch.chain",
        "batch.decode",
        "batch.kernel",
        "dither",
        "emission",
        "mux.group",
        "mux.run",
        "mux.tick",
        "parallel_map",
        "pmu",
        "propagation",
        "scenario",
        "scenario.component",
        "scenario.run",
        "scenario.setup",
        "scenario.teardown",
        "sdr",
        "stream.chunk",
        "sweep.plan",
        "sweep.trial",
        "vrm",
    }
)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars and other strays into JSON-friendly types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return repr(value)


class Tracer:
    """Writes events to a sink: a file handle or a buffering list."""

    def __init__(self, sink: Union[Any, List[dict]]):
        self._buffer = sink if isinstance(sink, list) else None
        self._handle = None if self._buffer is not None else sink
        self._t0 = time.perf_counter()
        self._pid = os.getpid()

    def emit(self, event: Dict[str, Any]) -> None:
        """Record one event, stamping ``ts`` and ``pid``."""
        record = {
            "ts": round(time.perf_counter() - self._t0, 6),
            "pid": self._pid,
        }
        record.update({k: _jsonable(v) for k, v in event.items()})
        self._write(record)

    def emit_raw(self, record: Dict[str, Any]) -> None:
        """Record an already-stamped event (merging worker buffers)."""
        self._write(record)

    def _write(self, record: Dict[str, Any]) -> None:
        if self._buffer is not None:
            self._buffer.append(record)
            return
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()  # keep `tail -f` live mid-batch


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or None when tracing is off."""
    return _tracer.get()


def tracing_active() -> bool:
    return _tracer.get() is not None


@contextmanager
def tracing_scope(path_or_handle: Union[str, os.PathLike, Any]) -> Iterator[Tracer]:
    """Install a tracer writing JSONL to ``path_or_handle``.

    A string/path argument opens (and closes) the file; anything else is
    treated as a writable handle owned by the caller.
    """
    handle = None
    if isinstance(path_or_handle, (str, os.PathLike)):
        handle = open(path_or_handle, "w")
        sink = handle
    else:
        sink = path_or_handle
    tracer = Tracer(sink)
    token = _tracer.set(tracer)
    try:
        yield tracer
    finally:
        _tracer.reset(token)
        if handle is not None:
            handle.close()


@contextmanager
def collect_events() -> Iterator[List[dict]]:
    """Buffer events into a list (worker side of the process boundary)."""
    buffer: List[dict] = []
    token = _tracer.set(Tracer(buffer))
    try:
        yield buffer
    finally:
        _tracer.reset(token)


def merge_events(events: List[dict]) -> None:
    """Replay a worker's buffered events into the active tracer."""
    tracer = _tracer.get()
    if tracer is None:
        return
    for record in events:
        tracer.emit_raw(record)


def trace_event(event: str, **fields: Any) -> None:
    """Emit a point event; free when tracing is off."""
    tracer = _tracer.get()
    if tracer is None:
        return
    payload: Dict[str, Any] = {"event": event}
    payload.update(fields)
    tracer.emit(payload)


@contextmanager
def span(
    name: str,
    attrs: Optional[Dict[str, Any]] = None,
    lazy: Optional[Callable[[], Dict[str, Any]]] = None,
) -> Iterator[None]:
    """Emit a span event covering the body's duration.

    ``attrs`` are attached as-is; ``lazy`` is called only when tracing
    is active (after the body runs), for attributes that are expensive
    to compute, such as an RNG-state digest.  While tracing is active a
    ``name`` outside :data:`REGISTERED_SPANS` raises :class:`ValueError`
    before the body runs; with tracing off the name is not looked at.
    """
    tracer = _tracer.get()
    if tracer is None:
        yield
        return
    if name not in REGISTERED_SPANS:
        raise ValueError(
            f"span name {name!r} is not in REGISTERED_SPANS "
            "(repro/obs/trace.py); register it or fix the typo"
        )
    started = time.perf_counter()
    try:
        yield
    finally:
        payload: Dict[str, Any] = {
            "event": "span",
            "name": name,
            "duration_s": round(time.perf_counter() - started, 6),
        }
        if attrs:
            payload.update(attrs)
        if lazy is not None:
            payload.update(lazy())
        tracer.emit(payload)


def key_prefix(key: Optional[str]) -> Optional[str]:
    """Abbreviate a cache key for event payloads (None passes through)."""
    if key is None:
        return None
    return key[:KEY_PREFIX_LEN]


def rng_digest(rng) -> str:
    """Short stable digest of a Generator's current state.

    Spans carry this so a trace shows exactly where two runs' stochastic
    histories diverge (the same property the chain cache keys on).
    """
    # Local import: exec.cache imports this module for event emission.
    from ..exec.cache import fingerprint

    return fingerprint(rng.bit_generator.state)[:KEY_PREFIX_LEN]
