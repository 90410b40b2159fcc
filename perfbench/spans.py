"""In-memory spans around calls into hopfarb, and their per-name totals.

A span holds a name, start, end, the span open when it started (its
parent) and the benchmark operation it belongs to.  Spans live in flat
arrays while the run lasts and are written out once at the end.
"""

from __future__ import annotations

import gzip
import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.info: dict[int, object] = {}
        self.op_id = 0
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin_op(self) -> None:
        """Spans from here on belong to the next benchmark operation."""
        self.op_id += 1

    def wrap(self, name: str, fn, info=None):
        """``fn`` recording one span per call; ``info(args, result)`` is kept with it."""
        names, start, end, parent, op, open_ = (
            self.names, self.start, self.end, self.parent, self.op, self._open
        )

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(open_[-1] if open_ else -1)
            op.append(self.op_id)
            end.append(0.0)
            open_.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                open_.pop()
            if info is not None:
                self.info[i] = info(args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Gzipped, one JSON array per line: name, start, end, parent, op, info."""
        t0 = self.start[0] if self.names else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, name in enumerate(self.names):
                row = [name, self.start[i] - t0, self.end[i] - t0, self.parent[i], self.op[i]]
                if i in self.info:
                    row.append(self.info[i])
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


@contextmanager
def patched(targets):
    """Temporarily set ``(obj, attr, value)`` attributes, restoring them on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, value in targets:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


@dataclass
class Total:
    s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    spans: list = field(default_factory=list)  # (duration, info) per span


def totals(tracer: Tracer, lo: int, hi: int) -> dict[str, Total]:
    """Totals per span name over spans ``lo..hi-1``.

    Self time is a span's duration minus the part of it that its child
    spans cover.
    """
    kids: dict[int, list[int]] = {}
    for i in range(lo, hi):
        p = tracer.parent[i]
        if p >= lo:
            kids.setdefault(p, []).append(i)
    out: dict[str, Total] = {}
    for i in range(lo, hi):
        dur = tracer.end[i] - tracer.start[i]
        covered, reach = 0.0, tracer.start[i]
        for k in kids.get(i, ()):  # children are in start order
            a, b = max(tracer.start[k], reach), tracer.end[k]
            if b > a:
                covered += b - a
                reach = b
        t = out.setdefault(tracer.names[i], Total())
        t.s += dur
        t.self_s += dur - covered
        t.calls += 1
        t.spans.append((dur, tracer.info.get(i)))
    return out
