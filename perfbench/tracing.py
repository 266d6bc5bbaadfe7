"""In-memory spans and counts recorded around calls into spheresym.

A span is one timed call into a layer: its name (``<module>.<function>``),
the round and op it belongs to, its parent span, and its start and end
times.  Spans stay in memory and are written to the report when the run
ends.  A layer's self time is its span's duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.round = 0
        self.op = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "round": self.round,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[self.round][name] += int(value)

    def round_spans(self, r: int) -> list[tuple[int, dict]]:
        return [(i, s) for i, s in enumerate(self.spans) if s["round"] == r]

    def self_times(self, r: int) -> dict[str, float]:
        """Seconds of self time per layer name over round ``r``."""
        spans = self.round_spans(r)
        child_time: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for i, s in spans:
            out[s["name"]] += (s["end"] - s["start"]) - child_time[i]
        return dict(out)

    def root_time(self, r: int) -> float:
        """Wall seconds covered by the top-level spans of round ``r``."""
        return sum(s["end"] - s["start"] for _, s in self.round_spans(r) if s["parent"] is None)
