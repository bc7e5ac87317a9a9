"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, start and end (``perf_counter`` seconds), its parent
span and a trace id shared by every span of one request.  Spans are kept
in memory and written as JSONL when the run ends.  A span's *self time*
is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_current: contextvars.ContextVar[Optional[Tuple[str, int]]] = contextvars.ContextVar(
    "perfbench_span", default=None)


class Spans:
    """A span recorder; ``with spans("layer.call"):`` records one span."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self._ids = itertools.count(1)

    @contextmanager
    def __call__(self, name: str, **attrs):
        parent = _current.get()
        span_id = next(self._ids)
        trace = parent[0] if parent is not None else f"t{span_id}"
        token = _current.set((trace, span_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _current.reset(token)
            self.records.append({
                "name": name, "span": span_id, "trace": trace,
                "parent": parent[1] if parent is not None else None,
                "start": start, "end": end, **attrs,
            })

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def p50_us(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) * 1e6 if values else float("nan")

    def self_times(self) -> Dict[int, float]:
        """Self time of every span, by span id."""
        children: Dict[int, List[Dict[str, object]]] = {}
        for record in self.records:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(record)
        out = {}
        for record in self.records:
            start, end = record["start"], record["end"]
            covered, cursor = 0.0, start
            for child in sorted(children.get(record["span"], ()), key=lambda c: c["start"]):
                lo, hi = max(child["start"], cursor), min(child["end"], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[record["span"]] = (end - start) - covered
        return out

    def self_time_table(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (count, median self time µs, total self time s)."""
        selfs = self.self_times()
        by_name: Dict[str, List[float]] = {}
        for record in self.records:
            by_name.setdefault(record["name"], []).append(selfs[record["span"]])
        return {
            name: (len(values), statistics.median(values) * 1e6, sum(values))
            for name, values in by_name.items()
        }

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
