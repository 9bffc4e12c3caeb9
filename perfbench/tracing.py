"""In-memory spans recorded around calls into the hakan library.

The benchmark wraps public functions and instance methods from its own
files; nothing inside `hakan` knows it is being traced.  A span records its
name, start, end and parent.  Spans are kept in a list and read out when
the workload ends.  Self time is a span's duration minus the part of that
interval its children cover; calls are single-threaded and nest, so that
part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

_MISSING = object()


@dataclass(eq=False)
class Span:
    name: str
    index: int  # position in Tracer.spans
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []  # spans not yet ended, innermost last

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, len(self.spans), -1 if parent is None else parent.index,
                      time.perf_counter())
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child_time += record.duration

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patch(self, owner, attr: str, name: str):
        """Replace `owner.attr` by a traced wrapper for the block's duration.

        `owner` is a module, a class or an instance.  The owner's own entry
        is put back afterwards, or removed if it had none (an instance
        method found on the class).
        """
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        try:
            yield
        finally:
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def patch_all(self, targets) -> ExitStack:
        """An ExitStack holding `patch` for every (owner, attr, span name)."""
        stack = ExitStack()
        for owner, attr, name in targets:
            stack.enter_context(self.patch(owner, attr, name))
        return stack

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def descendants(self, root: Span) -> list:
        """Every span nested under `root`, in start order.

        Spans are appended as they open, so a span's descendants are the
        run of spans that follows it and opened before it ended.
        """
        out = []
        for s in self.spans[root.index + 1:]:
            if s.start >= root.end:
                break
            out.append(s)
        return out
