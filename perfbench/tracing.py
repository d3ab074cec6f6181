"""Spans recorded around the benchmark's calls into sgisect.

A span is (name, start, end, parent, instance): ``parent`` is the index of the
enclosing span or -1, ``instance`` the batch position of the item being
processed.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Untraced:
    """The tracer of an untraced pass: calls straight through."""

    instance = -1

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance = -1
        self._open: list[int] = []

    def call(self, name, fn, *args):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.instance]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Per layer (the span name up to its first dot), the summed span time
        not covered by child spans.  Children of one span never overlap, since
        the benchmark is single-threaded."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name.split(".", 1)[0]] += end - start - covered
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, instance in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "instance": instance}) + "\n")
