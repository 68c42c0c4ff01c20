"""Outside-in span tracer for the ``cbmi_nmt`` package.

The tracer wraps public functions of each module from outside: the package
is not edited and knows nothing about it. A traced name is patched in every
loaded ``cbmi_nmt`` module namespace that holds the same object, because
modules import each other's functions by name (``cli`` imports
``beam_search``; ``decoding`` and ``training`` import ``nmt_forward``).
A name that no longer exists is reported as absent instead of failing, so
later refactors of the package cannot break the benchmark.

Spans are kept in memory as ``[name, start, end, parent, info]`` lists;
``parent`` is the index of the enclosing span (-1 at top level). Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

PACKAGE = "cbmi_nmt"

NAME, START, END, PARENT, INFO = range(5)


@dataclass(frozen=True)
class Target:
    """One traced name.

    ``module`` and ``attr`` locate the object (``attr`` may be
    ``Class.method``); ``span`` names the span, or a callable builds the name
    from the call's positional arguments; ``info`` turns
    ``(args, kwargs, result)`` into a value stored on the span.
    """

    module: str
    attr: str
    span: str | Callable[[tuple], str]
    info: Callable[[tuple, dict, Any], Any] | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.installed: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---- patching ----

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack = self.spans, self._stack
        span_name, info = target.span, target.info
        fixed_name = span_name if isinstance(span_name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [fixed_name or span_name(args), perf_counter(), 0.0,
                   stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return traced

    def install(self, targets: list[Target]) -> None:
        """Patch every target; a tracer may be installed again after
        ``uninstall`` and keeps adding to the same spans."""
        self.absent, self.installed = [], []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for target in targets:
            label = f"{target.module}.{target.attr}"
            module = sys.modules.get(f"{PACKAGE}.{target.module}")
            owner_name, _, method = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                self.absent.append(label)
                continue
            if owner_name:
                if not self._patch_method(owner, method, target):
                    self.absent.append(label)
                    continue
            else:
                original = getattr(module, method, None)
                if not callable(original):
                    self.absent.append(label)
                    continue
                wrapped = self._wrap(original, target)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapped)
            self.installed.append(label)

    def _patch_method(self, cls: object, name: str, target: Target) -> bool:
        raw = vars(cls).get(name) if isinstance(cls, type) else None
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(raw.__func__, target))
        elif callable(raw):
            new = self._wrap(raw, target)
        else:
            return False
        self._undo.append((cls, name, raw))
        setattr(cls, name, new)
        return True

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # ---- analysis ----

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the direct children's."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]

    def covered_time(self) -> float:
        """Wall time covered by at least one top-level span."""
        return sum(rec[END] - rec[START] for rec in self.spans if rec[PARENT] < 0)

    def ancestor(self, index: int, prefix: str) -> int:
        """Index of the nearest enclosing span whose name starts with
        ``prefix``, or -1."""
        spans = self.spans
        index = spans[index][PARENT]
        while index >= 0 and not spans[index][NAME].startswith(prefix):
            index = spans[index][PARENT]
        return index
