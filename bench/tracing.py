"""In-memory spans and counters recorded around the benchmark's calls into fusioncast.

A span is (name, start, end, parent index). Spans nest through a stack, so a
span opened inside another becomes its child; a layer's self time is its
duration minus the time its direct children cover. Nothing is written while a
run measures: :meth:`Tracer.dump` writes the spans once the run is over.

:class:`NullTracer` has the same interface and records nothing. Untraced runs
use it, so traced and untraced runs execute the same driver code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tracer = self._tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self._index = len(tracer.spans)
        tracer.spans.append([self._name, _clock(), 0.0, parent])
        tracer._stack.append(self._index)
        return self

    def __exit__(self, *exc):
        tracer = self._tracer
        tracer.spans[self._index][2] = _clock()
        tracer._stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (sum of durations) and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name, start, end, parent in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start
            if parent >= 0:
                out[self.spans[parent][0]]["self_s"] -= end - start
        return out

    def dump(self, path, run_info: dict) -> None:
        records = [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"run": run_info, "counters": dict(self.counters), "spans": records}, fh)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: float = 1) -> None:
        pass
