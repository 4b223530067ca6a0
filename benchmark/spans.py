"""Spans around the benchmark's calls into the program's public functions.

Every call the workload makes into flucdet goes through a `Calls` object.
The plain form only remembers the function, so a failure can be charged to
its module.  The traced form also records a span (name, start, end, parent,
op) per call, keeps them in memory, and counts Omega^2 evaluations through a
copy of the profile whose omega_sq is a counting wrapper; each evaluation is
charged to the innermost open span.  Nothing inside flucdet is instrumented.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time


def module_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Calls:
    """Untraced calls: no spans, no counters."""

    def __init__(self):
        self.last = None

    def __call__(self, fn, *args, **kwargs):
        self.last = fn
        return fn(*args, **kwargs)

    def profile(self, profile):
        return profile

    def count(self, name: str, amount: int) -> None:
        pass

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    @contextlib.contextmanager
    def op(self, index: int):
        self.last = None
        yield


class Tracer(Calls):
    """Traced calls: spans, Omega^2 evaluation counts and named counters."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self.counters = {}
        self._stack = []
        self._op = None

    def _open(self, name: str) -> dict:
        span = {"name": name, "op": self._op, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "evals": 0}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            self._close(span)

    def __call__(self, fn, *args, **kwargs):
        self.last = fn
        with self.span(f"{module_of(fn)}.{fn.__qualname__}"):
            return fn(*args, **kwargs)

    def profile(self, profile):
        inner = profile.omega_sq
        spans, stack = self.spans, self._stack

        def counted(t):
            spans[stack[-1]]["evals"] += 1
            return inner(t)
        return dataclasses.replace(profile, omega_sq=counted)

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def op(self, index: int):
        self.last = None
        self._op = index
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(i, ()), key=lambda k: spans[k]["start"]):
            lo = max(cursor, spans[c]["start"])
            hi = min(s["end"], spans[c]["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s["end"] - s["start"] - covered)
    return out
