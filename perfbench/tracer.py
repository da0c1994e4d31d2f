"""Span tracer that wraps ``repro`` layer entry points from outside.

The program keeps no wall-clock timing of its own, so a traced run
replaces each layer entry point with a wrapper that records one span
per call: name, start, end, parent span and operation id.  Spans stay
in memory and are written out once, when the run ends.

Patching follows how the program binds its functions:

* a module-level function is replaced in *every* ``repro.*`` module that
  binds it by name (``print_program`` alone is imported into ten
  modules), so ``from x import f`` call sites are traced too;
* a method is replaced on its class.

:meth:`Tracer.unpatch` restores every replaced binding and then sweeps
the ``repro.*`` modules once more, because a module first imported while
patching was active bound the wrapper instead of the original.

Parent stacks are thread-local, so spans recorded on service worker
threads nest under their own thread's spans, never under the event
loop's.  A span's *self time* is its duration minus the time its
children cover; a span's *calls* count only entries into its layer, so
a recursive or re-entrant call is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager

_ORIGINAL = "__perfbench_original__"


class Span:
    """One traced call.  ``tag`` and ``ok`` are optional per-target
    annotations: a grouping key taken from the arguments, and whether the
    call's result counted as useful (a rule that applied, a cache hit)."""

    __slots__ = ("name", "parent", "op", "tag", "start", "end", "ok")

    def __init__(self, name: str, parent: "Span | None", op, tag):
        self.name = name
        self.parent = parent
        self.op = op
        self.tag = tag
        self.start = 0.0
        self.end = 0.0
        self.ok = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def original(obj):
    """The innermost function behind any number of tracer wrappers."""
    while isinstance(obj, types.FunctionType) and _ORIGINAL in obj.__dict__:
        obj = obj.__dict__[_ORIGINAL]
    return obj


def is_wrapper(obj) -> bool:
    return original(obj) is not obj


def repro_modules() -> list[types.ModuleType]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Records spans for wrapped callables; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        #: (owner, attribute, value before patching), in patching order.
        self._patches: list[tuple[object, str, object]] = []

    # -- operations --------------------------------------------------------

    def set_operation(self, op) -> None:
        """Operation id for spans this thread opens outside any other
        span (a case-arm repair, a source, a request)."""
        self._local.op = op

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, *, op=None, tag=None, ok=None):
        """``fn`` recording a ``name`` span per call.

        ``op`` and ``tag`` take the call's arguments; ``op`` overrides the
        inherited operation id.  ``ok`` takes the result.
        """
        local = self._local
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if op is not None:
                span_op = op(*args, **kwargs)
            elif parent is not None:
                span_op = parent.op
            else:
                span_op = getattr(local, "op", None)
            span = Span(name, parent, span_op,
                        tag(*args, **kwargs) if tag is not None else None)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if ok is not None:
                span.ok = bool(ok(result))
            return result

        wrapper.__dict__[_ORIGINAL] = fn
        return wrapper

    def patch(self, name: str, module: str, attribute: str,
              **options) -> None:
        """Trace ``module.attribute`` (``"Class.method"`` for a method).

        A target missing from this version of the program is skipped.
        """
        owner = sys.modules.get(module)
        *path, last = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if isinstance(owner, type):
            target = owner.__dict__.get(last)
            if target is not None:
                self._replace(owner, last, self.wrap(name, target, **options))
            return
        target = getattr(owner, last, None)
        if target is None:
            return
        wrapper = self.wrap(name, target, **options)
        for candidate in repro_modules():
            for key, value in list(vars(candidate).items()):
                if value is target:
                    self._replace(candidate, key, wrapper)

    def _replace(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def unpatch(self) -> None:
        """Restore every patched binding, including wrappers that modules
        imported during the traced run bound by name."""
        while self._patches:
            owner, key, previous = self._patches.pop()
            setattr(owner, key, previous)
        for module in repro_modules():
            for key, value in list(vars(module).items()):
                if is_wrapper(value):
                    setattr(module, key, original(value))

    @contextmanager
    def patched(self, targets):
        """Patch ``(name, module, attribute, options)`` targets for the
        duration of the block; always unpatch, even when it raises."""
        try:
            for name, module, attribute, options in targets:
                self.patch(name, module, attribute, **options)
            yield self
        finally:
            self.unpatch()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls`` (entries into the layer), ``s``
        (inclusive seconds of those entries), ``self_s`` and ``ok``."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[id(span.parent)] += span.duration
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "s": 0.0,
                                               "self_s": 0.0, "ok": 0})
            entry["self_s"] += span.duration - covered[id(span)]
            if span.parent is None or span.parent.name != span.name:
                entry["calls"] += 1
                entry["s"] += span.duration
                entry["ok"] += span.ok
        return out

    def by_tag(self, name: str) -> dict:
        """Inclusive seconds of layer entries named ``name``, per tag."""
        totals: dict = defaultdict(float)
        for span in self.spans:
            if span.name == name and (span.parent is None
                                      or span.parent.name != name):
                totals[span.tag] += span.duration
        return dict(totals)

    def write(self, path) -> None:
        """Write spans as JSON lines ``[name, start, end, parent, op]``;
        ``parent`` is a line number, ``op`` a small integer."""
        index = {id(span): number for number, span in enumerate(self.spans)}
        ops: dict = {}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = (index.get(id(span.parent))
                          if span.parent is not None else None)
                op = None
                if span.op is not None:
                    op = ops.setdefault(id(span.op), len(ops))
                handle.write(json.dumps([span.name, span.start, span.end,
                                         parent, op]) + "\n")
