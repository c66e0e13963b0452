"""In-memory spans recorded from outside the program.

The ledger never instruments ``repro`` itself: a span wraps one call
*into* a layer's public function, made from the ledger's own files.
Spans stay in memory until the workload ends; a span's *self time* is its
duration minus the part of it its child spans cover (single-threaded, so
children never overlap).
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class SpanRecorder:
    """Collects ``{id, name, parent, start, end, ...attrs}`` records.

    A disabled recorder records nothing, so untraced repetitions run the
    same harness code with the instrument off.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            **attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str, **where) -> float:
        """Summed duration of spans called ``name`` matching ``where``."""
        return sum(duration(s) for s in self.select(name, **where))

    def select(self, name: str, **where) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name
            and all(s.get(key) == value for key, value in where.items())
        ]

    def with_self_times(self) -> list[dict]:
        """The spans, each with ``duration`` and ``self`` seconds added."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += duration(s)
        return [
            {**s, "duration": duration(s), "self": duration(s) - covered[s["id"]]}
            for s in self.spans
        ]


def duration(span: dict) -> float:
    return span["end"] - span["start"]
