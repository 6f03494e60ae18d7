"""Spans for the traced run, and the statistics the benchmark reports.

Timing shims replace public functions at the module attributes the program
calls through. Each call becomes a span: name, start, end, parent span, and
the unit id (row, col, spec_index) it works for. Spans stay in memory until
the run ends.
"""
from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None          # index of the calling span
    unit: Optional[tuple] = None          # (row, col, spec_index)
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable, unit_of=None, note=None) -> Callable:
        """A shim around fn. unit_of(args) names the unit a call works for
        (default: its caller's); note(args, result) adds info after the call."""

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            unit = unit_of(args) if unit_of else (
                self.spans[parent].unit if parent is not None else None)
            span = Span(name, 0.0, parent=parent, unit=unit)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if note:
                span.info.update(note(args, result))
            return result

        return shim

    def install(self, module, attr: str, name: str, **kw) -> None:
        """Shim module.attr; an attribute the module no longer has is skipped,
        so a function a later change stops calling reports 0 calls."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        self._installed.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, fn, **kw))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children.get(i, ())]
        out.append(span.duration - covered(clipped))
    return out


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def beyond(n: int, p: float) -> int:
    """Samples above the nearest-rank p-th percentile of n samples."""
    return n - math.ceil(p / 100 * n)


def tail_percentile(n: int):
    """The highest of p99, p95, p90, p75 and p50 with at least 10 of n
    samples above it, or None when there is none."""
    return next((p for p in (99, 95, 90, 75, 50) if beyond(n, p) >= 10), None)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]
