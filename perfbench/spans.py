"""Span tracing for the campaign benchmark, installed from outside the program.

:class:`Tracer` patches the public entry point of each layer (a function in
the namespace its caller looks it up in, or a method on its class) with a
wrapper that opens a span, calls through, and closes the span.  Spans nest
on a stack and stay in memory; :meth:`Tracer.dump` writes them out when the
run ends.

Time accounting.  A span's duration covers only the wrapped call; the
wrapper's own bookkeeping before and after the call is summed separately as
the tracing overhead.  A parent's self time is its duration minus the whole
intervals (call plus bookkeeping) of its direct children, so the self times
of all spans plus the overhead add up to the root spans' intervals.

Calls made in forked pool workers run the inherited wrappers but record
nothing: a wrapper only traces in the process that installed it.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder with per-layer aggregation."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.counts = {}
        self.overhead_s = 0.0
        self._stack = []
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _open(self, name, start):
        span = {"id": len(self.spans), "name": name, "start": start,
                "end": None, "parent": (self._stack[-1]["id"]
                                        if self._stack else None),
                "covered": 0.0}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span, end, outer):
        """Close *span* at *end*; *outer* is the wrapper interval its
        parent sees as covered by this child."""
        self._stack.pop()
        span["end"] = end
        if self._stack:
            self._stack[-1]["covered"] += outer

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        span = self._open(name, time.perf_counter())
        try:
            yield span
        finally:
            end = time.perf_counter()
            self._close(span, end, end - span["start"])

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers --------------------------------------------------------

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` with a traced wrapper.

        Counts are taken at this boundary: *before*, when given, is called
        as ``before(args)`` ahead of the call, and *after* as
        ``after(tracer, args, result, token)`` once it returns, with
        *token* whatever *before* returned.  Their time is overhead.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            if os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            span = tracer._open(name, entered)
            token = before(args) if before is not None else None
            finished = False
            called = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                finished = True
            finally:
                returned = time.perf_counter()
                if finished and after is not None:
                    after(tracer, args, result, token)
                left = time.perf_counter()
                span["start"] = called
                tracer._close(span, returned, left - entered)
                tracer.overhead_s += (called - entered) + (left - returned)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def self_seconds(self):
        """{span name: summed self time in seconds}."""
        totals = {}
        for span in self.spans:
            own = (span["end"] - span["start"]) - span["covered"]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def calls(self, name):
        return sum(1 for span in self.spans if span["name"] == name)

    def dump(self, path, **extra):
        """Write every span, the counts, the overhead and *extra* as
        JSON."""
        with open(path, "w") as handle:
            json.dump(dict(extra, spans=self.spans, counts=self.counts,
                           overhead_s=self.overhead_s), handle)
