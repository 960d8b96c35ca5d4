"""In-memory spans and counts recorded around calls into evhash's modules.

Nothing in ``src/`` is instrumented. A :class:`Tracer` replaces a module
attribute (for example ``evhash.losses.forward_batch_train``, the name
``losses.batch_loss`` looks up at call time) with a wrapper that records a
span, then restores the original when the ``patched`` block ends. Spans are
kept in a list and written out once, when the benchmark ends.

An :class:`OpClock` is the untraced runs' hook: one timestamp per primary
operation (an Adam step, an eval query, a source's database write), taken
at a boundary the benchmark cannot reach from outside a monolithic call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    def as_dict(self, t0):
        return {"name": self.name, "start_s": self.start - t0,
                "end_s": self.end - t0, "parent": self.parent, "op": self.op}


class Tracer:
    """Spans (name, start, end, parent span, operation id) and counters.

    Spans of one primary operation share ``op``; ``next_op`` starts the
    next one. ``counts[name][op]`` accumulates counters the same way.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.op = 0
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def next_op(self):
        self.op += 1

    def count(self, name, amount=1.0):
        self.counts[name][self.op] += amount

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args, kwargs)`` runs ahead of the
        span and ``after(args, kwargs, result)`` after it closes, so the
        hooks' own cost is not charged to the layer."""

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install ``(owner, attribute, span name, before, after)`` wrappers."""
        with patched_attrs([(owner, attr, self.wrap(name, getattr(owner, attr),
                                                    before, after))
                            for owner, attr, name, before, after in targets]):
            yield self

    def layer_times(self, ops=None):
        """Total and self seconds per span name, over spans whose op is in
        ``ops`` (all spans when None). Self time is a span's duration minus
        the durations of its direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        total = defaultdict(float)
        self_t = defaultdict(float)
        for i, s in enumerate(self.spans):
            if ops is not None and s.op not in ops:
                continue
            total[s.name] += s.end - s.start
            self_t[s.name] += s.end - s.start - child[i]
        return total, self_t

    def counted(self, name, ops=None):
        per_op = self.counts.get(name, {})
        return sum(v for op, v in per_op.items() if ops is None or op in ops)

    def dump(self):
        return {"spans": [s.as_dict(self._t0) for s in self.spans],
                "counts": {name: {str(op): v for op, v in per_op.items()}
                           for name, per_op in self.counts.items()}}


class OpClock:
    """Timestamps at one boundary of each primary operation."""

    def __init__(self, on_tick=None):
        self.stamps: list[float] = []
        self.on_tick = on_tick

    def tick(self):
        self.stamps.append(time.perf_counter())
        if self.on_tick is not None:
            self.on_tick()

    def after(self, fn):
        def clocked(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.tick()
            return result

        return clocked

    def before(self, fn):
        def clocked(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return clocked


@contextmanager
def patched_attrs(replacements):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# -- summaries ----------------------------------------------------------------


def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("median of no values")
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def tail(values, beyond=10):
    """(value, percentile) of the highest percentile that has at least
    ``beyond`` samples above it: the (beyond+1)-th largest sample. With
    fewer samples than that, the largest sample and percentile 100."""
    v = sorted(values)
    n = len(v)
    if n <= beyond:
        return v[-1], 100.0
    return v[n - beyond - 1], 100.0 * (n - beyond) / n
