"""Spans around the calls into each layer, recorded from outside the package.

The traced run swaps each public layer function for a wrapper wherever a
`jsonduel` module holds a reference to it, so the wrappers keep working when
the calling modules are reorganised. Spans stay in memory until the run ends.

A layer's self time gives every instant of the root span to the spans open
at that instant: split evenly among the innermost open span of each thread,
and to the root when no child span is open. Self times therefore add up to
the root span's duration by construction, even when two threads wait on the
model at once.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root: Span | None = None

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else (self.root.id if self.root else None)
        span = Span(next(self._ids), parent, name, threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def run_root(self, name: str, fn, *args):
        """Call `fn(*args)` inside the root span; returns (result, root span)."""
        self.root = self.open(name)
        try:
            result = fn(*args)
        finally:
            self.close(self.root)
        return result, self.root

    def children(self) -> list[Span]:
        return [s for s in self.spans if s is not self.root]

    def self_times(self) -> dict[str, float]:
        """Exclusive seconds per layer inside the root span."""
        root = self.root
        events = []
        for span in self.children():
            events.append((span.start, 1, span))
            events.append((span.end, 0, span))
        events.sort(key=lambda e: (e[0], e[1]))
        open_by_thread: dict[int, list[Span]] = {}
        totals: dict[str, float] = {}
        last = root.start
        for when, is_start, span in events:
            _credit(totals, open_by_thread, root, when - last)
            last = when
            stack = open_by_thread.setdefault(span.thread, [])
            if is_start:
                stack.append(span)
            else:
                stack.remove(span)
        _credit(totals, open_by_thread, root, root.end - last)
        return totals

    def nesting_problems(self) -> list[str]:
        """Spans that were left open or stick out of their parent, and
        nested spans that run on another thread than their parent."""
        by_id = {s.id: s for s in self.spans}
        problems = []
        for span in self.children():
            parent = by_id.get(span.parent)
            if parent is None:
                problems.append(f"span {span.name}: parent {span.parent} never closed")
            elif not parent.start <= span.start <= span.end <= parent.end:
                problems.append(f"span {span.name} is not inside {parent.name}")
            elif parent is not self.root and parent.thread != span.thread:
                problems.append(f"span {span.name} is on another thread than {parent.name}")
        return problems

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "thread": span.thread, "start": span.start, "end": span.end,
                    **span.attrs,
                }) + "\n")


def _credit(totals, open_by_thread, root, dt: float) -> None:
    if dt <= 0:
        return
    innermost = [stack[-1] for stack in open_by_thread.values() if stack]
    if not innermost:
        totals[root.layer] = totals.get(root.layer, 0.0) + dt
        return
    share = dt / len(innermost)
    for span in innermost:
        totals[span.layer] = totals.get(span.layer, 0.0) + share


def wrap(tracer: Tracer, name: str, fn, annotate=None):
    """`fn` inside a span; `annotate(span, args, kwargs, result)` adds attributes."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if annotate is not None:
            annotate(span, args, kwargs, result)
        return result

    return traced


class Patch:
    """Replace functions in every loaded `jsonduel` module; undo on exit.

    `replacements` maps each original function to its stand-in.
    """

    def __init__(self, replacements: dict):
        self._by_id = {id(original): new for original, new in replacements.items()}
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "jsonduel"]:
            for attr, value in list(vars(module).items()):
                replacement = self._by_id.get(id(value))
                if replacement is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()
        return False
