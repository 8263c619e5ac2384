"""Benchmark-side spans and the method wrappers that produce them.

The program is not instrumented: the benchmark times each call it makes
into a layer, and in traced trials it also wraps methods of the objects
it hands to one layer, so that the calls that layer makes into the next
are timed from outside.  A span is ``(name, start, end)``; its layer is
the name's first dotted component.  Parents are recovered after the
trial from interval containment (the benchmark is single-threaded, so
spans nest), and a span's self time is its duration minus its
children's.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

from measure import clock, median


class SpanLog:
    """In-memory spans of one traced trial."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float]] = []

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end))

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        add = self.spans.append

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add((name, t0, clock()))

        return timed

    def wrap_methods(self, obj, prefix: str, methods: Sequence[str]) -> None:
        """Time ``obj``'s ``methods`` in place (instance attributes)."""
        for m in methods:
            setattr(obj, m, self.wrap(getattr(obj, m), f"{prefix}.{m}"))

    def tree(self) -> List[Tuple[str, float, float, int]]:
        """Spans ordered by start, each with its parent's index (-1 = root)."""
        order = sorted(self.spans, key=lambda s: (s[1], -s[2]))
        out: List[Tuple[str, float, float, int]] = []
        stack: List[int] = []
        for name, start, end in order:
            while stack and out[stack[-1]][2] < end:
                stack.pop()
            out.append((name, start, end, stack[-1] if stack else -1))
            stack.append(len(out) - 1)
        return out

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.tree())


class SpanSummary:
    """Per-name durations and self times of one trial's span tree."""

    def __init__(self, tree: List[Tuple[str, float, float, int]]) -> None:
        self.tree = tree
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.self_time: Dict[str, float] = defaultdict(float)
        child = [0.0] * len(tree)
        for name, start, end, parent in tree:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(tree):
            self.durations[name].append(end - start)
            self.self_time[name] += end - start - child[i]

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def median(self, name: str) -> float:
        d = self.durations.get(name)
        return median(d) if d else 0.0

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))
