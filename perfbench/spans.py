"""Spans recorded around calls into the library, kept in memory.

A span has a name, start and end (``perf_counter_ns``), the span that
enclosed it, and a request id shared by every span under one top-level
operation.  With tracing off, ``span`` hands back one shared object whose
enter and exit do nothing, so the untraced run executes the same harness
code minus the recording.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

_now = time.perf_counter_ns


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        pass


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "name", "attrs", "id", "parent", "request", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tr = self.tracer
        tr._next_id += 1
        self.id = tr._next_id
        stack = tr._stack
        if stack:
            self.parent = stack[-1].id
            self.request = stack[-1].request
        else:
            self.parent = None
            self.request = self.id
        stack.append(self)
        self.start = _now()
        return self

    def __exit__(self, *exc):
        end = _now()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.id, self.parent, self.request, self.name, self.start, end, self.attrs))
        return False

    def set(self, **attrs) -> None:
        """Attach counts known only once the call has returned."""
        self.attrs.update(attrs)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # (id, parent id, request id, name, start ns, end ns, attrs)
        self.spans: list[tuple] = []
        self._stack: list[_Span] = []
        self._next_id = 0

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, attrs)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, request, name, start, end, attrs in self.spans:
                row = {"id": sid, "parent": parent, "request": request, "name": name,
                       "start_ns": start, "end_ns": end}
                row.update(attrs)
                fh.write(json.dumps(row))
                fh.write("\n")


@dataclass
class Layer:
    """Every span of one name: call count, durations, self time, attrs."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    self_each: list[int] = field(default_factory=list)
    attrs: list[dict] = field(default_factory=list)

    def attr_sum(self, key: str) -> int:
        return sum(a[key] for a in self.attrs)


def summarize(spans: list[tuple]) -> dict[str, Layer]:
    """Group spans by name.  A span's self time is its duration minus the
    time covered by its child spans (one thread, so children never overlap)."""
    child_ns: dict[int, int] = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    layers: dict[str, Layer] = {}
    for sid, _, _, name, start, end, attrs in spans:
        layer = layers.get(name)
        if layer is None:
            layer = layers[name] = Layer()
        own = end - start - child_ns.get(sid, 0)
        layer.calls += 1
        layer.total_ns += end - start
        layer.self_ns += own
        layer.self_each.append(own)
        layer.attrs.append(attrs)
    return layers
