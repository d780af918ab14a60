"""Timing spans and counters recorded around editseg's public functions.

The traced run replaces module attributes and methods with wrappers that
record a span per call (name, start, end, parent span, phase) and update
counters; ``restore`` puts the originals back. Spans stay in memory until
the run ends. Functions are wrapped where their callers look them up:
``model.py`` calls ``K.conv_bn_relu`` through the kernels module, while
``training.py`` imported ``encode_example`` by name, so the coverage guard in
``run.py`` fails a run whose expected span recorded no call.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, phase]
        self.counters = defaultdict(float)
        self.phase = None
        self._stack = []
        self._originals = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.phase]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1.0):
        self.counters[(self.phase, name)] += value

    def wrap(self, owner, attr: str, name, on_call=None):
        """Record a span per call of ``owner.attr``; ``name`` may be a function
        of the call's arguments, and ``on_call(args, result)`` updates counters."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name if isinstance(name, str) else name(args)):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- aggregation -------------------------------------------------------------

    def durations(self, phase: str, name: str) -> list[float]:
        """Seconds of each ``name`` span recorded in ``phase``, in call order."""
        return [end - start for n, start, end, _, p in self.spans if n == name and p == phase]

    def total(self, phase: str, name: str) -> float:
        return sum(self.durations(phase, name))

    def calls(self, phase: str) -> dict[str, int]:
        out = defaultdict(int)
        for n, _, _, _, p in self.spans:
            if p == phase:
                out[n] += 1
        return out

    def child_share(self, phase: str, root: str) -> float:
        """Share of the ``root`` spans' time covered by their direct children."""
        roots = {i for i, (n, _, _, _, p) in enumerate(self.spans) if n == root and p == phase}
        covered = sum(end - start for _, start, end, parent, _ in self.spans if parent in roots)
        whole = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        return covered / whole

    def window_durations(self, phase: str, first: str, last: str) -> list[float]:
        """Seconds from the start of each ``first`` span to the end of the next ``last`` span."""
        out, start = [], None
        for n, s, e, _, p in self.spans:
            if p != phase:
                continue
            if n == first and start is None:
                start = s
            elif n == last and start is not None:
                out.append(e - start)
                start = None
        return out
