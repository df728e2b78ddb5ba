"""Spans: the one timer, feeding JSONL traces and span-time totals.

A :func:`span` brackets one unit of work (a chain stage, a batched
kernel, a sweep trial, a scenario hook).  What a live span reports goes
to whatever the active :class:`Tracer` holds:

* an **event sink** (``--trace FILE``, :func:`tracing_scope`): one JSON
  object per span or point event, in order, safe to ``tail -f`` while a
  long batch runs and trivial to load into pandas afterwards;
* a **span-time collector** (:func:`collect_span_times`, opened by the
  experiment runner): each span adds its *self time* - its duration
  minus the durations of its child spans - under its name, so the
  totals partition the covered wall time without double counting.  A
  ``batch.kernel`` span is keyed ``batch.kernel.<kernel>``.

Event shape
-----------
Every event carries ``ts`` (seconds since the sink opened, per
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

The tracer lives in a :mod:`contextvars` variable; with neither a sink
nor a collector installed, :func:`span` and every emit helper are a
single ``ContextVar.get`` + ``None`` check, so the instrumented hot
paths cost nothing in normal runs.  Point events, ``lazy`` span
attributes (RNG digests) and :func:`tracing_active` act only when a
sink is present.  Worker processes buffer their events
(:func:`collect_events`) and span times (:func:`collect_span_times`);
the pool merges both into the parent's tracer, each event keeping its
own per-process timeline.

Spans on one thread must nest: a span that outlives its parent (two
coroutines interleaving their spans) would misattribute self time.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Union

_tracer: ContextVar[Optional["Tracer"]] = ContextVar(
    "repro_tracer", default=None
)

#: Hex digits kept when abbreviating a 64-char cache key for an event.
KEY_PREFIX_LEN = 12

#: Every span name the code base may open.  While a sink or collector
#: is installed, :func:`span` raises for any other name, so a typo'd or ad-hoc span
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


class EventSink:
    """Writes events to a file handle or a buffering list."""

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


@dataclass
class Tracer:
    """What a live span reports to: an optional event sink and an
    optional ``{span key: self seconds}`` collector."""

    sink: Optional[EventSink] = None
    times: Optional[Dict[str, float]] = None
    #: Child-span seconds of each open span, innermost last.  Shared by
    #: nested scopes so self time stays exact across them.
    open: List[float] = field(default_factory=list)


@contextmanager
def _scope(**change: Any) -> Iterator[Tracer]:
    """Install a tracer that keeps the active one's parts except
    ``change``."""
    tracer = replace(_tracer.get() or Tracer(), **change)
    token = _tracer.set(tracer)
    try:
        yield tracer
    finally:
        _tracer.reset(token)


def _sink() -> Optional[EventSink]:
    tracer = _tracer.get()
    return None if tracer is None else tracer.sink


def tracing_active() -> bool:
    """True when events are being written (``--trace``)."""
    return _sink() is not None


def collecting_span_times() -> bool:
    """True when a span-time collector is installed."""
    tracer = _tracer.get()
    return tracer is not None and tracer.times is not None


@contextmanager
def tracing_scope(path_or_handle: Union[str, os.PathLike, Any]) -> Iterator[Tracer]:
    """Install an event sink writing JSONL to ``path_or_handle``.

    A string/path argument opens (and closes) the file; anything else is
    treated as a writable handle owned by the caller.
    """
    handle = None
    if isinstance(path_or_handle, (str, os.PathLike)):
        handle = open(path_or_handle, "w")
        sink = handle
    else:
        sink = path_or_handle
    try:
        with _scope(sink=EventSink(sink)) as tracer:
            yield tracer
    finally:
        if handle is not None:
            handle.close()


@contextmanager
def collect_events() -> Iterator[List[dict]]:
    """Buffer events into a list (worker side of the process boundary)."""
    buffer: List[dict] = []
    with _scope(sink=EventSink(buffer)):
        yield buffer


@contextmanager
def collect_span_times() -> Iterator[Dict[str, float]]:
    """Sum the self time of every span closed in this scope, by key."""
    times: Dict[str, float] = {}
    with _scope(times=times):
        yield times


def merge_events(events: List[dict]) -> None:
    """Replay a worker's buffered events into the active sink."""
    sink = _sink()
    if sink is None:
        return
    for record in events:
        sink.emit_raw(record)


def merge_span_times(times: Mapping[str, float]) -> None:
    """Add a worker's span times to the active collector.

    The worker ran concurrently with the parent's open span, so its
    time is not that span's child time: every self time stays >= 0.
    """
    tracer = _tracer.get()
    if tracer is None or tracer.times is None:
        return
    for key, seconds in times.items():
        tracer.times[key] = tracer.times.get(key, 0.0) + seconds


def format_timings(timings: Mapping[str, float]) -> str:
    """Render ``{span key: seconds}`` as a one-liner, costliest first."""
    return ", ".join(
        f"{name} {seconds:.2f}s"
        for name, seconds in sorted(
            timings.items(), key=lambda kv: kv[1], reverse=True
        )
    )


def trace_event(event: str, **fields: Any) -> None:
    """Emit a point event; free when no sink is installed."""
    sink = _sink()
    if sink is None:
        return
    payload: Dict[str, Any] = {"event": event}
    payload.update(fields)
    sink.emit(payload)


@contextmanager
def span(
    name: str,
    attrs: Optional[Dict[str, Any]] = None,
    lazy: Optional[Callable[[], Dict[str, Any]]] = None,
) -> Iterator[None]:
    """Time the body as span ``name``.

    With a collector installed the span's self time is added under its
    key; with a sink it is written as a ``span`` event carrying
    ``attrs`` and, computed after the body runs, ``lazy()`` (for
    attributes that are expensive to compute, such as an RNG-state
    digest).  While either is installed a ``name`` outside
    :data:`REGISTERED_SPANS` raises :class:`ValueError` before the body
    runs; with neither, the name is not looked at.
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
    open_spans = tracer.open
    open_spans.append(0.0)
    started = time.perf_counter()
    try:
        yield
    finally:
        duration = time.perf_counter() - started
        children = open_spans.pop()
        if open_spans:
            open_spans[-1] += duration
        times = tracer.times
        if times is not None:
            key = f"{name}.{attrs['kernel']}" if name == "batch.kernel" else name
            times[key] = times.get(key, 0.0) + duration - children
        if tracer.sink is not None:
            payload: Dict[str, Any] = {
                "event": "span",
                "name": name,
                "duration_s": round(duration, 6),
            }
            if attrs:
                payload.update(attrs)
            if lazy is not None:
                payload.update(lazy())
            tracer.sink.emit(payload)


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
