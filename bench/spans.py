"""In-memory spans around the benchmark's calls into each layer.

A span records its name, an optional label, start and end on the
``time.perf_counter`` clock, the index of its parent span, the request
it belongs to, and whether the call raised.  Spans stay in memory until
the run ends; ``summarize`` then derives busy time, self time (duration
minus the part covered by child spans), call and error counts.

``Untraced`` has the same interface and only forwards calls, so a
workload's request code is written once and runs either way.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    label: str
    start: float
    end: float
    parent: int | None
    request: int
    error: bool = False


class Untraced:
    active = False

    def call(self, name, fn, *args, label="", **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def request(self, request_id: int):
        yield


class Tracer:
    """Records a span for every ``call`` and ``request`` while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = -1
        self.active = False

    def _open(self, name: str, label: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, label, time.perf_counter(), 0.0, parent, self._request))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, error: bool) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def call(self, name, fn, *args, label="", **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        index = self._open(name, label)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._close(index, True)
            raise
        self._close(index, False)
        return out

    @contextmanager
    def request(self, request_id: int):
        if not self.active:
            yield
            return
        self._request = request_id
        index = self._open("request", "")
        try:
            yield
        except BaseException:
            self._close(index, True)
            raise
        self._close(index, False)

    def write(self, path: str) -> None:
        """One JSON object per line, in the order spans were opened."""
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "label": s.label,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                            "error": s.error,
                        }
                    )
                    + "\n"
                )


@dataclass
class SpanStats:
    busy_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    errors: int = 0


def summarize(spans: list[Span], scale: dict[int, float]) -> dict[tuple[str, str], SpanStats]:
    """Per (name, label): summed duration, summed self time, calls and
    errors.  Durations are multiplied by their request's ``scale`` factor,
    or left as they are for a request that has none (one that raised)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[tuple[str, str], SpanStats] = {}
    for i, s in enumerate(spans):
        k = scale.get(s.request, 1.0)
        st = out.setdefault((s.name, s.label), SpanStats())
        st.busy_s += k * (s.end - s.start)
        st.self_s += k * (s.end - s.start - child_time[i])
        st.calls += 1
        st.errors += s.error
    return out
