"""In-memory spans for the traced run.

A span is [name, start, end, parent index, scenario id]; names are
``<layer>.<call>``.  Times come from ``time.perf_counter``, which on Linux
reads CLOCK_MONOTONIC and so agrees across the benchmark's processes.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, scenario: str = ""):
        index = self.add(name, time.perf_counter(), None, scenario=scenario)
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name: str, start: float, end, parent: int | None = None,
            scenario: str = "") -> int:
        """Record a span; the parent defaults to the innermost open span."""
        if parent is None:
            parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, scenario])
        return len(self.spans) - 1

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by another process under ``parent``."""
        base = len(self.spans)
        for name, start, end, up, scenario in spans:
            self.spans.append([name, start, end, parent if up < 0 else base + up, scenario])

    def durations(self, name: str, speed: dict[int, float] | None = None) -> list[float]:
        """Durations of the spans called ``name``, each times its ``speed`` factor."""
        speed = speed or {}
        return [(end - start) * speed.get(k, 1.0)
                for k, (n, start, end, _, _) in enumerate(self.spans) if n == name]

    def self_times(self, layers, speed: dict[int, float] | None = None,
                   skip=()) -> dict[str, float]:
        """Seconds per layer spent in its own spans minus their child spans,
        each span times its ``speed`` factor.  Spans whose parent is named in
        ``skip`` are left out."""
        speed = speed or {}
        scaled = [(end - start) * speed.get(k, 1.0)
                  for k, (_, start, end, _, _) in enumerate(self.spans)]
        child = [0.0] * len(self.spans)
        for k, (_, _, _, up, _) in enumerate(self.spans):
            if up >= 0:
                child[up] += scaled[k]
        total = dict.fromkeys(layers, 0.0)
        for k, (name, _, _, up, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if layer in total and not (up >= 0 and self.spans[up][0] in skip):
                total[layer] += scaled[k] - child[k]
        return total

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "scenario")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")
