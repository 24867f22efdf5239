"""In-memory span recorder for the traced benchmark run.

A span covers one call from the benchmark into a listlbm module: its
name, start, end and the span that was open when it began. Spans stay
in memory and are written out once, when the run ends. A disabled
recorder hands out one shared no-op context, so untraced runs pay no
more than an attribute lookup per call site.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Spans:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []  # id, name, parent, start, end
        self._open: list[int] = []
        self._null = nullcontext()

    def span(self, name: str):
        return self._span(name) if self.enabled else self._null

    @contextmanager
    def _span(self, name: str):
        rec = {
            "id": len(self.records),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Each name's summed duration minus the time its direct children
        cover. Children of one span never overlap: calls are sequential."""
        out: dict[str, float] = {}
        for r in self.records:
            out[r["name"]] = out.get(r["name"], 0.0) + (r["end"] - r["start"])
        for r in self.records:
            if r["parent"] is not None:
                parent = self.records[r["parent"]]["name"]
                out[parent] -= r["end"] - r["start"]
        return out

    def cost_per_span(self, samples: int = 20000) -> float:
        """Seconds one empty span costs this recorder; the measuring spans
        are discarded."""
        mark = len(self.records)
        t0 = time.perf_counter()
        for _ in range(samples):
            with self._span("trace.empty"):
                pass
        seconds = (time.perf_counter() - t0) / samples
        del self.records[mark:]
        return seconds

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {**extra, "self_seconds": self.self_times(), "spans": self.records},
                fh,
            )
