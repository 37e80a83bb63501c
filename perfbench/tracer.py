"""Span tracer that wraps the package's functions from outside.

A :class:`Tracer` replaces each traced function at every place the package
binds it: the defining module's attribute, every module that imported the
name (``folner.compose``, ``diagnostics.compose``, the package namespace)
and class attributes that alias it (``FElement.__call__``).  Constructors
are traced by wrapping ``__init__``; a construction is recorded once, under
the concrete class, even when a subclass ``__init__`` chains to its base.
:meth:`Tracer.restore` puts every original object back.

Each call records a span: a name, start and end times and the span that was
open when it began.  Spans live in flat arrays until the run ends.  A name
that does not exist at the commit under test is recorded as absent and
skipped.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable

ResultHook = Callable[[Counter, object], None]

PACKAGE = "thompsonf"


def _resolve(module: str, qualname: str):
    """(owner, attribute name, raw object) for ``module`` + ``qualname``, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn: Callable, result_hook: ResultHook | None = None) -> Callable:
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counters, clock = self.counters, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if result_hook is not None:
                result_hook(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _package_namespaces(self):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value

    def trace_function(
        self,
        name: str,
        module: str,
        qualname: str,
        result_hook: ResultHook | None = None,
        wrap: Callable[[Callable], Callable] | None = None,
    ) -> None:
        """Trace a function, method or property everywhere the package binds it.

        ``result_hook`` adds to :attr:`counters` from each result; ``wrap``
        decorates the original inside the span, to read its arguments.
        """
        found = _resolve(module, qualname)
        if found is None:
            self.absent.append(f"{module}:{qualname}")
            return
        owner, attr, original = found
        if isinstance(original, property):
            self._patch(owner, attr, property(self._span(name, original.fget, result_hook)))
            return
        wrapper = self._span(name, original if wrap is None else wrap(original), result_hook)
        for namespace in self._package_namespaces():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._patch(namespace, key, wrapper)

    def trace_constructor(self, name: str, module: str, qualname: str) -> None:
        """Trace constructions of exactly this class (not of its subclasses)."""
        found = _resolve(module, qualname)
        if found is None or not isinstance(found[2], type):
            self.absent.append(f"{module}:{qualname}")
            return
        cls = found[2]
        original = cls.__dict__.get("__init__")
        if original is None:
            self.absent.append(f"{module}:{qualname}.__init__")
            return
        traced = self._span(name, original)

        def init(obj, *args, **kwargs):
            if type(obj) is cls:
                return traced(obj, *args, **kwargs)
            return original(obj, *args, **kwargs)

        self._patch(cls, "__init__", init)

    def restore(self) -> None:
        """Put back every replaced attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.span_name.count(nid)

    def total_time(self, name: str) -> float:
        """Summed duration in seconds of the ``name`` spans, children included."""
        nid = self._ids.get(name)
        return sum(
            self.span_end[i] - self.span_start[i]
            for i, n in enumerate(self.span_name)
            if n == nid
        )

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        return self_times(self.names, self.span_name, self.span_parent, self.span_start, self.span_end)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        count = 0
        for i, n in enumerate(self.span_name):
            if n != nid:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != aid:
                p = self.span_parent[p]
            count += p >= 0
        return count


def self_times(names, span_name, span_parent, span_start, span_end) -> dict[str, float]:
    """Self time per name: each span's duration minus the part its children cover.

    Child intervals are clipped to the parent's and merged, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(span_parent):
        if p >= 0:
            children.setdefault(p, []).append((span_start[i], span_end[i]))
    totals = dict.fromkeys(names, 0.0)
    for i, nid in enumerate(span_name):
        start, end = span_start[i], span_end[i]
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        totals[names[nid]] += (end - start) - covered
    return totals
