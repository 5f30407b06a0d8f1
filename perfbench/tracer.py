"""Per-layer tracing by wrapping functions from outside the program.

A ``Tracer`` replaces each target function with a timing wrapper in every
module of a package that binds it, because ``from x import f`` copies the
name into the importing module and a wrapper installed only on ``x`` would
miss those call sites. Methods are wrapped on their class. On exit every
replaced name is restored.

Each call becomes a span (name, start, end, parent) kept in compact in-memory
arrays; a stack of open spans gives each span's self time, which is its
duration minus the durations of the wrapped calls it made. Probes attached to
a target turn a call's arguments and result into counters (array sizes,
outcomes), so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module`` plus a dotted ``qualname`` inside it.

    ``label`` is the metric prefix. ``probe(args, kwargs, result, counters)``
    runs after each call and adds to the target's counters.
    """

    module: str
    qualname: str
    label: str
    probe: Callable | None = None


class LayerStats:
    """Calls, inclusive and self time, and probe counters of one target."""

    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters: dict[str, float] = {}

    def add(self, key: str, value: float):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float):
        self.counters[key] = max(self.counters.get(key, value), value)


class Tracer:
    """Context manager that traces calls to ``targets`` inside ``package``."""

    def __init__(self, targets: list[Target], package: str = "tupack",
                 clock: Callable[[], float] = time.perf_counter):
        self.targets = list(targets)
        self.package = package
        self.clock = clock
        self.stats = {t.label: LayerStats() for t in self.targets}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [span id, start, child time]
        self._patched: list[tuple[object, str, object]] = []

    # -- installing and restoring ------------------------------------------

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        for index, target in enumerate(self.targets):
            owner = sys.modules[target.module]
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, index, target)
            if path:  # a method: rebinding it on its class reaches every caller
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        return self

    def _patch(self, owner, name: str, wrapper):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        return False

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, index: int, target: Target):
        stats = self.stats[target.label]
        probe = target.probe
        clock = self.clock
        stack = self._stack
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [span, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                starts[span] = frame[1]
                ends[span] = end
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if probe is not None:
                probe(args, kwargs, result, stats)
            return result

        return traced

    # -- output --------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def self_times_from_spans(self) -> dict[str, float]:
        """Self time per label recomputed from the stored spans alone."""
        duration = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(duration)
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += duration[span]
        out = {t.label: 0.0 for t in self.targets}
        for span, index in enumerate(self.span_name):
            out[self.targets[index].label] += duration[span] - child[span]
        return out

    def write_spans(self, path: str):
        """One JSON object per span: id, name, start, end, parent id."""
        labels = [t.label for t in self.targets]
        with open(path, "w", encoding="utf-8") as out:
            for span in range(self.span_count):
                out.write(json.dumps({
                    "id": span,
                    "name": labels[self.span_name[span]],
                    "start": self.span_start[span],
                    "end": self.span_end[span],
                    "parent": self.span_parent[span],
                }) + "\n")
