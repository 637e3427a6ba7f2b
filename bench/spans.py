"""In-memory spans for the traced benchmark run.

A span is recorded around each call the benchmark makes into a parafold
module, as ``[name, start, end, parent, op, error]``: ``name`` is
``<module>.<function>`` (or ``op.<kind>`` for the operation itself),
``parent`` the index of the enclosing span, ``op`` the operation id and
``error`` the name of the exception that left the span, if any.
Nothing inside the library is patched or wrapped.  The untraced run uses
:class:`NullTracer`, whose spans are one shared no-op context manager.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracer that records nothing (the untraced, gated runs)."""

    op = None

    def span(self, name):
        return _NULL


class Tracer:
    """Keeps every span in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None,
                  self.op, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (_, start, end, *_), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
        out.append((end - start) - _covered(clipped))
    return out


def layer_totals(spans, first=0, last=None):
    """``{layer: (self_seconds, calls)}`` over ``spans[first:last]``; the layer is
    the name up to its first dot."""
    totals = {}
    for span, own in list(zip(spans, self_times(spans)))[first:last]:
        layer = span[0].split(".", 1)[0]
        busy, calls = totals.get(layer, (0.0, 0))
        totals[layer] = (busy + own, calls + 1)
    return totals


def durations(spans, name, ops=None):
    """Durations in seconds of the spans called ``name`` (optionally only of ``ops``)."""
    return [
        end - start
        for n, start, end, _, op, _ in spans
        if n == name and (ops is None or op in ops)
    ]


def fastest(spans, name, ops):
    """Per operation of ``ops``, its fastest span called ``name`` over the rounds."""
    best = {}
    for n, start, end, _, op, _ in spans:
        if n == name and op in ops:
            best[op] = min(best.get(op, math.inf), end - start)
    return best
