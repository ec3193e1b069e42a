"""Spans recorded around each call the benchmark makes into the toolkit.

Every call is an operation: it is counted, and the first one that raises is
remembered. With tracing enabled, each call also leaves a span (run id, span
id, parent id, name, start, end) in memory; ``write`` saves them at the end.
When a ``clock`` is set, the end of every call is one of its laps.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self.run_id = ""
        self.attempted = 0
        self.failed_op: str | None = None
        self.clock = None  # a refspeed.Clock, set by the runner for each pass
        self._stack: list[int] = []

    def start_run(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled

    @contextmanager
    def span(self, name: str, op: bool = True):
        """Time ``name``; ``op=False`` marks a span that is not a toolkit call."""
        self.attempted += op
        if not self.enabled:
            try:
                yield
            except Exception:
                self.failed_op = self.failed_op or name
                raise
            self._lap(name, op)
            return
        span_id = len(self.spans)
        record = {
            "run": self.run_id,
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        except Exception:
            self.failed_op = self.failed_op or name
            raise
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
        self._lap(name, op)

    def _lap(self, name: str, op: bool) -> None:
        if op and self.clock is not None:
            self.clock.lap(name)

    def run_spans(self, run_id: str) -> list[dict]:
        return [s for s in self.spans if s["run"] == run_id]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    totals: dict[str, float] = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, reach)
            end = min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"] - covered)
    return totals
