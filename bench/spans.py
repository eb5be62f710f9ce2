"""In-memory span tracing of guardsim functions, installed at run time.

`Tracer.install` replaces each target function with a wrapper that records a
span (name, start, end, parent) in flat arrays, and returns an object whose
``restore`` puts every original back. Nothing under ``src/`` is edited: the
wrappers are attribute assignments on live modules and classes.

A function imported elsewhere with ``from .x import y`` is a separate binding
in the importing module, so a module-level target is patched in every
``guardsim`` module that holds the same function object.

Self time is a span's duration minus the durations of its direct children.
Calls are synchronous on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass

PACKAGE = "guardsim"


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0


def self_times(names: list[str], name_of, parent, start, end) -> dict[str, SpanStats]:
    """Aggregate calls and self time per span name from flat span arrays.

    ``parent[i]`` is the index of span ``i``'s caller span, or -1 for a root;
    a parent always has a smaller index than its children.
    """
    child_ns = [0] * len(start)
    for i in range(len(start)):
        if parent[i] >= 0:
            child_ns[parent[i]] += end[i] - start[i]
    stats = {name: SpanStats() for name in names}
    for i in range(len(start)):
        entry = stats[names[name_of[i]]]
        entry.calls += 1
        entry.self_ns += end[i] - start[i] - child_ns[i]
    return stats


class Tracer:
    """Records spans and named counters for one traced region at a time."""

    def __init__(self):
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts.clear()
        self._stack: list[int] = []

    def stats(self) -> dict[str, SpanStats]:
        return self_times(self.names, self.name_of, self.parent, self.start, self.end)

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(self.start)
            stack = self._stack
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def counter(self, fn, bump):
        """Wrap ``fn`` so that ``bump(self.counts, args, result)`` runs after each call."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            bump(counts, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, spans: list[str], counters: dict[str, object]) -> "Patches":
        """Span-wrap each ``module.qualname`` in ``spans`` and count-wrap each key of
        ``counters``; a target that does not exist is skipped and listed in
        ``Patches.missing``. Span names are the target strings."""
        patches = Patches()
        for target in counters:
            patches.wrap(target, lambda fn, bump=counters[target]: self.counter(fn, bump))
        for target in spans:
            patches.wrap(target, lambda fn, name=target: self.span(name, fn))
        return patches


class Patches:
    """The attribute assignments made by `Tracer.install`, undone by `restore`."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, target: str, make) -> None:
        module_name, _, qualname = target.partition(".")
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        owner_path, _, attr = qualname.rpartition(".")
        owner = module
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(target)
            return
        replacement = make(original)
        if owner_path:
            self._set(owner, attr, replacement)
            return
        for name, other in list(sys.modules.items()):
            if (name == PACKAGE or name.startswith(PACKAGE + ".")) and getattr(other, attr, None) is original:
                self._set(other, attr, replacement)

    def _set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)
