"""Layer tracing from outside the program.

The tracer wraps public functions of the package and rebinds every name
that refers to them, in every loaded ``eightblocks`` module, so calls
made through ``from .x import f`` aliases are seen too.  Two kinds of
boundary exist:

* per-call boundaries (oracles, graph routines, parsing) are aggregated
  into a record of calls, inclusive time and self time, so millions of
  oracle calls cost a fixed amount of memory;
* coarse boundaries (a census, a solve, a model build, one ``cli.main``)
  are aggregated the same way and additionally stored as spans
  ``(name, start, end, parent, op)``.

Self time is a boundary's duration minus the time spent in the wrapped
boundaries it called.  Nothing is installed until :meth:`Tracer.install`
and :meth:`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "eightblocks"

CALL, SPAN, GEN = "call", "span", "gen"


@dataclass(frozen=True)
class Boundary:
    """One traced function: where it is defined and how it is recorded.

    ``measure(args, result)`` returns counts to add after every call (for
    a generator, after every yielded item); ``also`` maps an importing
    module to a second record that calls made through that module's
    binding are added to.
    """

    module: str
    attr: str
    name: str
    kind: str = CALL
    measure: object = None
    also: tuple[tuple[str, str], ...] = ()


class Record:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, boundaries: tuple[Boundary, ...]) -> None:
        self.boundaries = boundaries
        self.records: dict[str, Record] = {}
        self.counts: Counter[str] = Counter()
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[list[float]] = []  # per open frame: [child time]
        self._open_span = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def record(self, name: str) -> Record:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = Record()
        return rec

    def reset(self) -> None:
        """Zero every aggregate and drop the spans; bindings stay as they are."""
        for rec in self.records.values():  # wrappers hold these objects
            rec.calls, rec.total, rec.self_time = 0, 0.0, 0.0
        self.counts.clear()
        self.spans.clear()

    def begin_span(self, name: str) -> int:
        self.spans.append([name, perf_counter(), None, self._open_span, self.op])
        self._open_span = len(self.spans) - 1
        return self._open_span

    def end_span(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self._open_span = span[3]

    def _wrap(self, fn, b: Boundary, extra: Record | None):
        rec = self.record(b.name)
        stack = self._stack
        counts = self.counts
        measure = b.measure
        tracer = self

        if b.kind == GEN:

            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def resumed():
                    while True:
                        frame = [0.0]
                        stack.append(frame)
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            dt = perf_counter() - t0
                            stack.pop()
                            rec.calls += 1
                            rec.total += dt
                            rec.self_time += dt - frame[0]
                            if stack:
                                stack[-1][0] += dt
                        if measure is not None:
                            counts.update(measure(args, item))
                        yield item

                return resumed()

            return gen_wrapper

        def wrapper(*args, **kwargs):
            span = tracer.begin_span(b.name) if b.kind == SPAN else -1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec.calls += 1
                rec.total += dt
                rec.self_time += dt - frame[0]
                if extra is not None:
                    extra.calls += 1
                    extra.total += dt
                if stack:
                    stack[-1][0] += dt
                if span >= 0:
                    tracer.end_span(span)
            if measure is not None:
                counts.update(measure(args, result))
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for b in self.boundaries:
            original = getattr(importlib.import_module(b.module), b.attr)
            also = dict(b.also)
            shared = self._wrap(original, b, None)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is not original:
                        continue
                    extra = also.get(m.__name__)
                    wrapper = (
                        self._wrap(original, b, self.record(extra)) if extra else shared
                    )
                    self._saved.append((m, key, original))
                    setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, original in reversed(self._saved):
            setattr(m, key, original)
        self._saved.clear()
