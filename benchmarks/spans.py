"""
In-memory span recorder for the traced benchmark run.

A span is one call the benchmark makes into a layer's public function:
name, start, end, the span that was open when it started (its parent) and
the operation it belongs to.  Spans stay in memory while the run measures
and are written out once, when it ends.  ``NULL`` is the recorder used with
tracing off; its spans and counts do nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path


class Recorder:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, list[float]] = {}
        self.op_id: int | None = None
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        """Record a count made at a layer boundary, such as items returned."""
        self.counts.setdefault(name, []).append(value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, and self seconds (busy minus children)."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += end - start - children[i]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        obj = {"spans": [dict(zip(keys, s)) for s in self.spans], "counts": self.counts}
        path.write_text(json.dumps(obj) + "\n")


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> None:
        rec = self.rec
        self.index = len(rec.spans)
        parent = rec._open[-1] if rec._open else None
        rec.spans.append([self.name, time.perf_counter(), None, parent, rec.op_id])
        rec._open.append(self.index)

    def __exit__(self, *exc: object) -> None:
        rec = self.rec
        rec.spans[self.index][2] = time.perf_counter()
        rec._open.pop()


class _Null:
    enabled = False
    op_id = None
    _context = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._context

    def count(self, name: str, value: float) -> None:
        pass


NULL = _Null()
