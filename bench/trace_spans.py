"""In-memory span tracing of ``lepage`` functions, installed from outside.

A :class:`Tracer` wraps named package functions and records one span per
call: name, start, end and the index of the enclosing span (``-1`` at the
root).  Spans are kept in flat arrays and written out only when the run
ends.  Calls run on one thread, so spans nest properly and a span's self
time is its duration minus the durations of its direct children.

``from .expr import diff`` copies the binding into the importing module,
so :meth:`Tracer.install` replaces the function in every ``lepage.*``
namespace that binds it, not only where it is defined.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter


def self_times(parents, starts, ends) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    out = [end - start for start, end in zip(starts, ends)]
    for parent, start, end in zip(parents, starts, ends):
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Records spans for wrapped functions plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        """Start a span by hand (for spans that are not function calls)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """A wrapper that records a span per call of ``fn``.

        Results and exceptions pass through unchanged.  ``observe(span, args,
        kwargs, result)`` runs after the span (its index) has closed, so its
        cost is not charged to ``fn``.
        """
        nid = self.name_id(name)
        names, parents, starts, ends, stack, clock = (
            self.name, self.parent, self.start, self.end, self.stack, self.clock,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        return traced

    def install(self, targets: dict) -> None:
        """Wrap each ``"<module>.<function>"`` in ``targets`` everywhere it is bound.

        ``targets`` maps the qualified name to an observer or ``None``.  A
        module that is not imported binds nothing and is skipped.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lepage" or n.startswith("lepage."))]
        for qualname, observe in targets.items():
            module_name, func_name = qualname.rsplit(".", 1)
            home = sys.modules.get(f"lepage.{module_name}")
            if home is None:
                continue
            original = getattr(home, func_name)
            wrapper = self.wrap(qualname, original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller of an observed call)."""
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def summary(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over all recorded spans."""
        selfs = self_times(self.parent, self.start, self.end)
        calls: Counter = Counter()
        total: dict[str, float] = {}
        for nid, s in zip(self.name, selfs):
            name = self.names[nid]
            calls[name] += 1
            total[name] = total.get(name, 0.0) + s
        return {name: (calls[name], total[name]) for name in calls}

    def dump(self, path) -> None:
        """Write every span, column by column, as one JSON document."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
