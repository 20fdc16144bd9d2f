"""An in-memory span recorder that times library layers from outside.

The benchmark never edits the library.  Instead, :meth:`Tracer.wrap`
replaces a public function at the attribute its callers look it up
through (``repro.sdc.solver.linprog``, ``LogicOptimizer.optimize``, ...)
with a wrapper that records one span per call: name, start, end and the
span that was open when it started.  Parent links follow
:mod:`contextvars`, so concurrent asyncio tasks keep separate stacks.

Spans stay in memory; :meth:`Tracer.self_times` turns them into per-layer
self time (a span's duration minus the part its child spans cover) when
the run ends.  While :attr:`Tracer.enabled` is false a wrapper costs one
attribute check, and :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import contextvars
import functools
import time
from collections import defaultdict
from typing import Any, Callable

_OPEN_SPAN: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_open_span", default=-1)

#: ``hook(tracer, args, kwargs)`` runs before the call, outside its span;
#: ``hook(tracer, args, result)`` runs after it, outside its span.
Hook = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Span store plus the wrappers that feed it.

    Attributes:
        enabled: record spans and counters (wrappers pass straight
            through otherwise).
        counters: named counts added by hooks (gate counts, subgraphs).
        fired: calls seen per wrapped site (``module.attr`` label) while
            enabled -- a site that never fires means a renamed or
            bypassed function, and the traced run must fail.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.counters: dict[str, float] = defaultdict(float)
        self.fired: dict[str, int] = defaultdict(int)
        self._names: list[str] = []
        self._parents: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner: Any, attribute: str, name: str,
             before: Hook | None = None, after: Hook | None = None) -> str:
        """Wrap ``owner.attribute`` so each call records a ``name`` span.

        ``owner`` is a module or a class; class-, static- and plain
        methods are all handled.  Returns the site label used in
        :attr:`fired`.

        Raises:
            AttributeError: ``owner`` has no such attribute.
        """
        raw = (owner.__dict__[attribute] if isinstance(owner, type)
               else getattr(owner, attribute))
        descriptor = type(raw) if isinstance(raw, (classmethod,
                                                   staticmethod)) else None
        function = raw.__func__ if descriptor else raw
        site = f"{getattr(owner, '__name__', owner)}.{attribute}"
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            tracer.fired[site] += 1
            if before is not None:
                before(tracer, args, kwargs)
            index = len(tracer._names)
            tracer._names.append(name)
            tracer._parents.append(_OPEN_SPAN.get())
            tracer._starts.append(0.0)
            tracer._ends.append(0.0)
            token = _OPEN_SPAN.set(index)
            tracer._starts[index] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._ends[index] = time.perf_counter()
                _OPEN_SPAN.reset(token)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attribute,
                descriptor(wrapper) if descriptor else wrapper)
        self._originals.append((owner, attribute, raw))
        self.fired.setdefault(site, 0)
        return site

    def restore(self) -> None:
        """Put every wrapped attribute back (last wrapped, first restored)."""
        while self._originals:
            owner, attribute, raw = self._originals.pop()
            setattr(owner, attribute, raw)

    # ------------------------------------------------------------- reading

    def span_count(self, name: str) -> int:
        """How many spans named ``name`` were recorded."""
        return sum(1 for span_name in self._names if span_name == name)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        durations = [end - start for start, end in zip(self._starts,
                                                       self._ends)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(self._parents):
            if parent >= 0:
                covered[parent] += durations[index]
        totals: dict[str, float] = defaultdict(float)
        for index, name in enumerate(self._names):
            totals[name] += durations[index] - covered[index]
        return dict(totals)

    def dump(self) -> list[dict]:
        """Every span as a plain dict (name, start, end, parent index)."""
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in zip(
                    self._names, self._starts, self._ends, self._parents)]
