"""Outside-in span tracing for the benchmark.

``Tracer.wrap`` replaces a module attribute with a wrapper that records one
span per call: name, start, end, parent span and thread.  Spans stay in
memory until ``write`` dumps them as JSON.  The wrappers live in the
benchmark, not in the package: they sit on the module attributes that the
package itself looks up at call time (``unif.simulate_block``,
``bridge.survival_array``, ...), so every call the package makes across a
layer boundary passes through them.

A wrapper may also take counts at the boundary (elements processed, bytes
written, ...).  Counting runs after the span has ended and is recorded as a
child span named ``trace.count``, so it is charged to the tracer, never to a
layer's self time.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

COUNT_SPAN = "trace.count"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans around wrapped callables; ``restore`` undoes every wrap.

    A span opened on a thread that has no open span of its own (a pool
    worker) takes as parent the innermost span open on the thread that
    created the tracer, which is the caller that started the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._home = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, counter=None, **kwargs):
        """Call ``fn`` inside a span called ``name``; ``counter(args, kwargs,
        result)`` returns the span's counts."""
        stack = self._stacks[threading.get_ident()]
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks[self._home]
            parent = home[-1] if home else None
        span = self._start(name, parent)
        stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if counter is not None:
            count = self._start(COUNT_SPAN, parent)
            span.counts = counter(args, kwargs, result)
            count.end = time.perf_counter()
        return result

    def _start(self, name: str, parent: Optional[int]) -> Span:
        with self._lock:
            span = Span(
                len(self.spans), name, time.perf_counter(), 0.0, parent, threading.get_ident()
            )
            self.spans.append(span)
        return span

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, counter=counter, **kwargs)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def find(self, name: str) -> int:
        """Id of the first span called ``name``."""
        return next(span.id for span in self.spans if span.name == name)

    def summary(self, root: Optional[int] = None) -> dict[str, dict]:
        """Per span name: calls, total duration, self time and summed counts,
        over every span or over the subtree of span ``root``.

        Self time is a span's duration minus the union of the intervals its
        child spans cover, clipped to the span; children on other threads
        count, so a pool's caller is not charged for its workers' time.
        """
        spans = self.spans
        if root is not None:
            # a span's id is always larger than its parent's
            inside = {root}
            for span in spans[root + 1 :]:
                if span.parent in inside:
                    inside.add(span.id)
            spans = [span for span in spans if span.id in inside]
        children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out: dict[str, dict] = {}
        for span in spans:
            entry = out.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
            )
            duration = span.end - span.start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - _covered(span, children.get(span.id, ()))
            for key, value in span.counts.items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.__dict__ for span in self.spans], handle)


def _covered(span: Span, kids) -> float:
    intervals = sorted(
        (max(k.start, span.start), min(k.end, span.end)) for k in kids
    )
    covered = 0.0
    cur_start, cur_end = None, None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered
