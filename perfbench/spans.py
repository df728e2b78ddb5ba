"""In-memory spans around calls into the program's layers.

A :class:`Tracer` patches each wrapped function under the name its
caller looks it up by (a module attribute such as
``repro.batch.runner.align_bits`` or a class attribute such as
``repro.power.pmu.PMU.run``) and records one span per call: name,
start, end, its own id and the id of the span that was open when it
started.  Nothing inside ``src/`` is edited; :meth:`Tracer.remove`
rebinds every patched name to the object it held before.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSONL.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute path, span name, annotate).  ``annotate(result,
#: args, kwargs)`` returns extra numeric attributes for the span.
Target = Tuple[str, str, str, Optional[Callable[..., Dict[str, float]]]]


@dataclass
class Span:
    name: str
    span_id: int
    parent: int  # 0 at the root
    start: float
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


_MISSING = object()


def resolve(module: str, path: str) -> Tuple[Any, str]:
    """The object owning the last component of ``path`` and its name."""
    owner: Any = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs span wrappers over a list of targets; single-threaded."""

    def __init__(self, targets: List[Target]):
        self.targets = targets
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        # (owner, name, value in owner.__dict__ or _MISSING)
        self._saved: List[Tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span opened by the benchmark itself."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else 0
        record = Span(name, len(self.spans) + 1, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.span_id)
        return record

    def _close(self, record: Span) -> None:
        record.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original: Callable, name: str, annotate) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(record)
            if annotate is not None:
                record.attrs.update(annotate(result, args, kwargs))
            return result

        return wrapper

    def install(self) -> "Tracer":
        # Resolve every original before patching any, so a subclass
        # inheriting a patched method still wraps the real function.
        found = []
        for module, path, name, annotate in self.targets:
            try:
                owner, attr = resolve(module, path)
                found.append((owner, attr, getattr(owner, attr), name, annotate))
            except (ImportError, AttributeError):
                # A later refactor may remove a layer; its metrics then
                # read 0 instead of failing the run.
                self.missing.append(f"{module}.{path}")
        for owner, attr, current, name, annotate in found:
            saved = vars(owner).get(attr, _MISSING) if isinstance(
                owner, type
            ) else current
            self._saved.append((owner, attr, saved))
            setattr(owner, attr, self._wrap(current, name, annotate))
        return self

    def remove(self) -> None:
        for owner, attr, saved in reversed(self._saved):
            if saved is _MISSING:
                delattr(owner, attr)  # the class inherited it
            else:
                setattr(owner, attr, saved)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "id": s.span_id,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent
    and never overlap each other.
    """
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent:
            own[s.parent] -= s.duration
    return own


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, call count and summed attrs."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"self_s": 0.0, "calls": 0.0})
        entry["self_s"] += own[s.span_id]
        entry["calls"] += 1
        for key, value in s.attrs.items():
            entry[key] = entry.get(key, 0.0) + value
    return out
