"""In-memory spans around the benchmark's calls into growthcast.

A span is (name, start, end, parent, phase, attrs). Spans stay in memory
while the workload runs and are written out once at the end. With
tracing off ``call`` is a plain call, so the measured and the traced
runs execute the same op code.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "attrs", "self_s")

    def __init__(self, name: str, parent, phase: str):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.attrs = None
        self.start = self.end = self.self_s = 0.0

    def attr(self, key: str) -> float:
        return float(self.attrs.get(key, 0)) if self.attrs else 0.0


class Tracer:
    def __init__(self, enabled: bool = False, meter=None):
        self.enabled = enabled
        self.meter = meter
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.phase = "own"

    def call(self, name: str, fn, *args, **kwargs):
        if self.enabled:
            with self.span(name):
                out = fn(*args, **kwargs)
        else:
            out = fn(*args, **kwargs)
        if self.meter is not None:
            self.meter.maybe_checkpoint()
        return out

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = Span(name, self._stack[-1] if self._stack else None, self.phase)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def note(self, name: str, **attrs) -> None:
        """Attach attributes to the latest span called ``name``."""
        if not self.enabled:
            return
        for record in reversed(self.spans):
            if record.name == name:
                record.attrs = {**(record.attrs or {}), **attrs}
                return

    def finish(self) -> None:
        """Fill in each span's self time: its duration minus its children's."""
        for s in self.spans:
            s.self_s += s.end - s.start
            if s.parent is not None:
                self.spans[s.parent].self_s -= s.end - s.start

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.name, s.parent, s.phase, s.start, s.end, s.attrs]) + "\n")
