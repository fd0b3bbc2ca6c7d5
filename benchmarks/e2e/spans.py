"""The benchmark's own span recorder.

Nothing under ``src/`` is instrumented, so every span wraps a call the
benchmark itself makes into a layer's public functions.  Spans are kept
in memory and written as JSON lines when the workload ends; each line is
``{trace_id, span_id, parent_id, name, layer, start, end}`` with times in
seconds on the ``perf_counter`` clock.

A span's *self time* is its duration minus the part of that interval its
child spans cover; the ``*.unattributed*`` metrics are self times of
parent spans, so children plus remainder equal the parent by
construction as long as children stay inside their parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """In-memory spans with a per-recorder open-span stack.

    ``span()`` nests through the stack and is for single-threaded code;
    ``add()`` records a finished span with explicit times and parent, for
    spans measured elsewhere (a client thread's round trip, a stage total
    reported by the program, the server's own ``request_ms``).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def add(self, name: str, layer: str, start: float, end: float,
            parent: dict | None = None, trace_id: str | None = None) -> dict:
        span_id = len(self.spans) + 1
        span = {
            "trace_id": trace_id or (parent["trace_id"] if parent
                                     else f"t{span_id}"),
            "span_id": span_id,
            "parent_id": parent["span_id"] if parent else None,
            "name": name,
            "layer": layer,
            "start": start,
            "end": end,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, layer: str, trace_id: str | None = None):
        parent = self._stack[-1] if self._stack else None
        span = self.add(name, layer, time.perf_counter(), 0.0, parent,
                        trace_id)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def children_within(self, parent: dict, totals: dict[str, float],
                        layer: str) -> None:
        """Lay reported child totals end to end from the parent's start.

        The program reports these as sums (e.g. ``StageProfile`` seconds),
        not as intervals, so their position inside the parent is nominal;
        only their durations carry information.
        """
        cursor = parent["start"]
        for name, seconds in totals.items():
            self.add(name, layer, cursor, cursor + seconds, parent)
            cursor += seconds

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """span_id -> duration minus the interval its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent_id"] is not None:
                children.setdefault(span["parent_id"], []).append(
                    (span["start"], span["end"]))
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for start, end in sorted(children.get(span["span_id"], ())):
                start = max(start, cursor)
                end = min(end, span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            out[span["span_id"]] = (span["end"] - span["start"]) - covered
        return out

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_total(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        selfs = self.self_times()
        return sum(selfs[s["span_id"]] for s in self.spans
                   if s["name"] == name)

    def write_jsonl(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        return path


def read_jsonl(path: Path) -> SpanRecorder:
    """Load a span file back (the schema test re-derives self times)."""
    recorder = SpanRecorder()
    with Path(path).open() as lines:
        recorder.spans = [json.loads(line) for line in lines if line.strip()]
    return recorder
