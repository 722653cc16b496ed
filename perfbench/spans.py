"""In-memory span tracer that instruments the program from outside.

The benchmark never edits the program under test: a traced run installs
timing wrappers around public methods of the program's classes
(:meth:`Tracer.wrap`), records one span per call — name, start, end,
parent span and bin index — and restores the originals afterwards
(:meth:`Tracer.uninstall`).  Spans stay in memory and are written out once,
as one JSON file, when the benchmark ends (:meth:`Tracer.dump`).

Spans nest per thread: a call made while another traced call is open on
the same thread becomes its child and inherits its bin index.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from measure import Span


class Tracer:
    """Collects spans and counters; installs and removes method wrappers."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[type, str, object, bool]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, bin: Optional[int] = None) -> tuple:
        """Open a span on this thread; pass the token to :meth:`close`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if bin is None and parent is not None:
            bin = parent[2]
        token = (next(self._ids), name, bin,
                 parent[0] if parent is not None else None, perf_counter())
        stack.append(token)
        return token

    def close(self, token: tuple) -> float:
        """Close the span opened as ``token``; returns its duration."""
        end = perf_counter()
        self._stack().pop()
        span_id, name, bin, parent, start = token
        self.spans.append((span_id, name, start, end, parent, bin))
        return end - start

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # ------------------------------------------------------------------
    def wrap(self, cls: type, attr: str, name: str,
             on_result: Optional[Callable[[tuple, object, float], None]] = None
             ) -> None:
        """Time every call of ``cls.attr`` as a span named ``name``.

        ``on_result(args, result, seconds)`` runs after each call, outside
        the span, to record counters (``args[0]`` is the instance).  Works
        for plain methods and classmethods, inherited or not.
        """
        own = attr in cls.__dict__
        descriptor = cls.__dict__[attr] if own else getattr(cls, attr)
        is_classmethod = isinstance(descriptor, classmethod)
        function = descriptor.__func__ if is_classmethod else descriptor
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            token = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = tracer.close(token)
            if on_result is not None:
                on_result(args, result, seconds)
            return result

        setattr(cls, attr, classmethod(traced) if is_classmethod else traced)
        self._installed.append((cls, attr, descriptor, own))

    def uninstall(self) -> None:
        """Restore every wrapped method (reverse installation order)."""
        while self._installed:
            cls, attr, descriptor, own = self._installed.pop()
            if own:
                setattr(cls, attr, descriptor)
            else:
                delattr(cls, attr)

    # ------------------------------------------------------------------
    def span_objects(self) -> List[Span]:
        return [Span(*record) for record in self.spans]

    def dump(self, path: Path) -> None:
        """Write every span (and the counters) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "bin")
        document = {"spans": [dict(zip(keys, record))
                              for record in self.spans],
                    "counters": self.counters}
        path.write_text(json.dumps(document))


def inclusive_totals(spans: List[Span]) -> Dict[str, float]:
    """Summed duration per span name, not counting a span nested inside
    an ancestor of the same name (a method that calls itself, or one
    traced entry point calling another under the same name)."""
    by_id = {span.id: span for span in spans}
    totals: Dict[str, float] = {}
    for span in spans:
        ancestor = by_id.get(span.parent)
        nested = False
        while ancestor is not None:
            if ancestor.name == span.name:
                nested = True
                break
            ancestor = by_id.get(ancestor.parent)
        if not nested:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals
