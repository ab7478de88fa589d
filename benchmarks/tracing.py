"""Span recording from outside the program under test.

A ``Tracer`` swaps public module attributes (``engine.check_instance``,
``datalog.evaluate`` ...) for timing wrappers, so calls that go through
those attributes are recorded without changing a file under ``src/``.
Spans are kept in memory and written out at the end.  Hot leaf calls are
aggregated as count, total time, time covered by nested calls, and number
of calls that raised.  Every open call, span or leaf, is a frame on one
stack; a call's duration is added to its enclosing frame's child time, so
self time is duration minus child time.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.spans: list[dict] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, total_s, child_s, raised]
        self.counters: dict[str, float] = {}
        self._frames: list[list[float]] = []  # [child_s] per open call
        self._open_spans: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        """A span per call; on_result(tracer, result) may update counters."""
        name = self.prefix + name
        spans, frames, open_spans = self.spans, self._frames, self._open_spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = {"name": name, "start": clock(), "end": None,
                      "parent": open_spans[-1] if open_spans else None, "child_s": 0.0}
            frame = [0.0]
            open_spans.append(len(spans))
            spans.append(record)
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                open_spans.pop()
                record["end"] = end
                record["child_s"] = frame[0]
                if frames:
                    frames[-1][0] += end - record["start"]
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def wrap_leaf(self, name: str, fn):
        """Count and total time only: for calls made thousands of times."""
        stat = self.leaves.setdefault(self.prefix + name, [0, 0.0, 0.0, 0])
        frames = self._frames
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                elapsed = clock() - start
                frames.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                if frames:
                    frames[-1][0] += elapsed

        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        name = self.prefix + name
        self.counters[name] = self.counters.get(name, 0) + amount

    def patch(self, module, attr: str, name: str, *, leaf: bool = False, on_result=None):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        wrapped = self.wrap_leaf(name, original) if leaf else self.wrap(name, original, on_result)
        setattr(module, attr, wrapped)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        name = self.prefix + name
        if name in self.leaves:
            return self.leaves[name][0]
        return sum(1 for s in self.spans if s["name"] == name)

    def total_s(self, name: str) -> float:
        name = self.prefix + name
        if name in self.leaves:
            return self.leaves[name][1]
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_s(self, name: str) -> float:
        name = self.prefix + name
        if name in self.leaves:
            _, total, child, _ = self.leaves[name]
            return total - child
        return sum(s["end"] - s["start"] - s["child_s"] for s in self.spans if s["name"] == name)

    def raised(self, name: str) -> int:
        return self.leaves.get(self.prefix + name, [0, 0.0, 0.0, 0])[3]

    def export(self) -> dict:
        """Spans (name, start, end, parent index), leaf aggregates and counters."""
        return {
            "spans": [{k: s[k] for k in ("name", "start", "end", "parent")} for s in self.spans],
            "leaves": {name: dict(zip(("calls", "total_s", "child_s", "raised"), stat))
                       for name, stat in self.leaves.items()},
            "counters": self.counters,
        }
