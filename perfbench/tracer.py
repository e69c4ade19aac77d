"""Outside-in span tracer for the ipvem pipeline.

The tracer replaces public functions of the ipvem modules by wrappers that
record one span per call: id, parent id, trace id, name, start and end, plus
a few attributes read from the call's result.  An attribute that cannot be
read is recorded as ``describe_error`` and never fails the traced call.  A
call through a module attribute (``forms.local_load(...)`` in ``cli``)
and a call between functions of one module (which looks the name up in the
module globals) both go through the wrapper; a call through a name bound by
``from module import name`` does not.  No file of the program changes.

Spans stay in memory until :meth:`Tracer.dump` writes them out.  A target
that no longer exists in its module is recorded in ``absent`` and skipped.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    trace: str
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Wraps ``targets`` while installed and records spans inside ``trace``.

    ``targets`` is a list of ``(module, attribute, describe)``; ``describe``
    is ``None`` or a function ``(result, args) -> dict`` of span attributes,
    called after the span's end time is taken.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._stack = []
        self._trace = None
        self._saved = []

    def __enter__(self):
        self.absent = []
        for module, attr, describe in self.targets:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, describe))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextmanager
    def trace(self, trace_id):
        """Record the spans of the enclosed calls under ``trace_id``."""
        self._trace = trace_id
        try:
            yield self
        finally:
            self._trace = None

    def _wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._trace is None:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self._stack.pop()
                attrs = {} if ok else {"error": True}
                if ok and describe is not None:
                    try:
                        attrs = describe(result, args)
                    except Exception as exc:  # noqa: BLE001 - never fail the program
                        attrs = {"describe_error": repr(exc)}
                self.spans.append(Span(span_id, parent, self._trace, name, start, end, attrs))
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": [asdict(s) for s in self.spans]}, fh)


def child_seconds(spans):
    """Span id -> summed duration of its direct children.

    The program is single-threaded, so children of one span never overlap
    and their summed duration is the part of the parent they cover.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return covered
