"""A small span tracer that times a program from outside.

``Tracer.wrap`` returns a replacement for a function that records one
span per call: name, parent span, thread, start and end (monotonic
nanoseconds) and optional counters.  Each thread keeps its own span
stack, so a span's parent is the innermost open span of the same thread.
Work handed to ``Tracer.pool_class()`` workers is parented to the span
that submitted it; such cross-thread children are recorded for causality
but not subtracted from the submitter's self time, because the submitter
runs (or waits) in parallel with them.  Spans stay in memory until
written out.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# nested: the parent is the enclosing span of the same thread
Span = namedtuple("Span", "id parent nested name thread start end attrs")


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span of this thread (or the adopted parent)."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", None)

    def begin(self, name: str):
        stack = self._stack()
        nested = bool(stack)
        parent = self.current()
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, nested, name, time.perf_counter_ns()

    def end(self, token, attrs=None) -> None:
        stop = time.perf_counter_ns()
        sid, parent, nested, name, start = token
        self._stack().pop()
        self.spans.append(Span(sid, parent, nested, name, threading.get_ident(), start, stop, attrs))

    @contextmanager
    def span(self, name: str):
        token = self.begin(name)
        try:
            yield
        finally:
            self.end(token)

    def wrap(self, fn, name: str, attrs=None):
        """Replacement for ``fn`` recording a span; ``attrs(args, kwargs)``
        returns the span's counters (name -> number) from the call's
        arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token, attrs(args, kwargs) if attrs else None)

        return traced

    def wrap_counting_callback(self, fn, name: str, counter: str):
        """Like ``wrap`` for a function whose first argument is a callable;
        the span's ``counter`` attribute is how often that callable ran."""

        @functools.wraps(fn)
        def traced(callback, *args, **kwargs):
            evals = 0

            def counted(*a, **kw):
                nonlocal evals
                evals += 1
                return callback(*a, **kw)

            token = self.begin(name)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self.end(token, {counter: evals})

        return traced

    def _run_adopted(self, parent, fn, *args, **kwargs):
        prev = getattr(self._local, "adopted", None)
        self._local.adopted = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.adopted = prev

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks are parented to their submitter."""
        tracer = self

        class TracedThreadPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._run_adopted, tracer.current(), fn, *args, **kwargs)

        return TracedThreadPool


def self_times(spans) -> dict:
    """Span id -> self time in ns: duration minus same-thread child spans.

    Within one thread the self times of a span tree sum to the duration
    of its root span.
    """
    covered: dict = {}
    for s in spans:
        if s.nested:
            covered[s.parent] = covered.get(s.parent, 0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - covered.get(s.id, 0) for s in spans}


def from_json(rows) -> list:
    """Spans back from their JSON form (each span is written as a list)."""
    return [Span(*r) for r in rows]
