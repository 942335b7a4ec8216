"""Outside-in span tracing: wrap module attributes, record nested spans.

A ``Patch`` names a function or method by module path and attribute
(``"Class.method"`` for methods) and the span name its calls record. Inside
``patched(tracer, patches)`` every named attribute is replaced by a wrapper
that records one span per call: name, start, end and the index of the span
that was open when the call began (its parent, -1 at the root). On exit the
original attributes are put back, also when the body raised.

Spans stay in memory; ``write_spans`` writes them out once, at the end.
The program under test is never edited: only its module attributes are
swapped while the block runs, and calls resolve the wrapper because they
look the attribute up at call time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional

__all__ = ["Patch", "Span", "Tracer", "patched", "self_times", "has_ancestor", "write_spans"]


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store plus free-form facts that ``Patch.after`` hooks record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.facts: dict[str, list] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def note(self, key: str, value) -> None:
        self.facts.setdefault(key, []).append(value)


@dataclass(frozen=True)
class Patch:
    module: str
    attr: str  # "function" or "Class.method"
    span: str
    iterator: bool = False  # time each next() of the returned iterator instead of the call
    after: Optional[Callable[[Tracer, int, tuple, dict, object], None]] = None

    def owner_and_name(self):
        owner = importlib.import_module(self.module)
        *path, name = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name


_ABSENT = object()


def _timed_iterator(tracer: Tracer, name: str, iterable: Iterable) -> Iterator:
    it = iter(iterable)
    while True:
        try:
            item = tracer.call(name, next, (it,), {})
        except StopIteration:
            return
        yield item


def _wrap(tracer: Tracer, patch: Patch, fn: Callable) -> Callable:
    if patch.iterator:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _timed_iterator(tracer, patch.span, fn(*args, **kwargs))

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)  # the slot tracer.call is about to fill
            result = tracer.call(patch.span, fn, args, kwargs)
            if patch.after is not None:
                patch.after(tracer, index, args, kwargs, result)
            return result

    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer, patches: Iterable[Patch]):
    """Swap each patch's attribute for a recording wrapper; restore on exit.

    An attribute that does not exist is skipped and listed in
    ``tracer.missing``, so a renamed function shows as a missing span
    rather than an import error.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for patch in patches:
            try:
                owner, name = patch.owner_and_name()
                fn = getattr(owner, name)
            except (ImportError, AttributeError):
                tracer.missing.append(f"{patch.module}.{patch.attr}")
                continue
            # Remember the owner's own entry (absent when inherited), so
            # restoring never leaves a copy on a subclass.
            undo.append((owner, name, vars(owner).get(name, _ABSENT)))
            setattr(owner, name, _wrap(tracer, patch, fn))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so direct children never overlap
    each other and their durations can simply be subtracted.
    """
    out = [s.duration for s in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def write_spans(path: Path, runs: list[list[Span]]) -> None:
    """One JSON object per span; ``run`` numbers the traced invocation."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for run, spans in enumerate(runs):
            for i, s in enumerate(spans):
                fh.write(json.dumps({"run": run, "id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}))
                fh.write("\n")
