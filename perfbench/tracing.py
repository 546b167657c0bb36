"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps calls into each layer's public functions from the
outside: module-level functions are replaced wherever a ``repro`` module
holds a reference to them, methods are replaced on their class.  Every
call records one span ``(id, parent, name, start_ns, end_ns, request id,
flag)``.  Parents follow the calling thread's span stack; a worker pool
wrapped with :meth:`Tracer.propagate` carries the submitting thread's
context into the worker, and :meth:`Tracer.wrap_http_handler` takes the
request id from the client's ``X-Request-Id`` header.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSON lines.
:meth:`Tracer.summary` folds them into per-name calls, total time, self
time (duration minus the union of child spans inside it) and flag counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

HEADER = "X-Request-Id"


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int
    rid: Optional[str]
    #: ``flag(result)`` for wrappers given one (e.g. cache hit), else None.
    flag: Optional[bool]


class LayerStats(NamedTuple):
    calls: int
    total_s: float
    self_s: float
    flagged: int


class Tracer:
    """Records spans around wrapped calls; undo every patch with
    :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- context -----------------------------------------------------------

    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> Tuple[Optional[int], Optional[str]]:
        """(innermost open span id, request id) of the calling thread."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "base", (None, None))

    def _enter(self, rid: Optional[str] = None) -> Tuple[int, Optional[int],
                                                         Optional[str]]:
        parent, parent_rid = self.context()
        sid = next(self._ids)
        rid = rid if rid is not None else parent_rid
        self._stack().append((sid, rid))
        return sid, parent, rid

    def call(self, name: str, fn: Callable[..., Any], args: tuple,
             kwargs: dict, rid: Optional[str] = None,
             flag: Optional[Callable[[Any], bool]] = None) -> Any:
        sid, parent, rid = self._enter(rid)
        start = time.perf_counter_ns()
        result = marker = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack().pop()
            if flag is not None:
                marker = bool(flag(result))
            self.spans.append(Span(sid, parent, name, start, end, rid,
                                   marker))

    def record(self, name: str, start_ns: int, end_ns: int,
               rid: Optional[str] = None) -> None:
        """A span timed by the caller (client-side HTTP requests)."""
        parent, parent_rid = self.context()
        self.spans.append(Span(next(self._ids), parent, name, start_ns,
                               end_ns, rid if rid is not None
                               else parent_rid, None))

    # -- patching ----------------------------------------------------------

    def _wrapper(self, name: str, fn: Callable[..., Any],
                 flag: Optional[Callable[[Any], bool]]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, flag=flag)
        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old) if had
                          else delattr(owner, attr))

    def wrap_function(self, module: Any, attr: str, name: str,
                      flag: Optional[Callable[[Any], bool]] = None) -> None:
        """Trace ``module.attr`` in every ``repro`` module that imported
        it by name."""
        original = getattr(module, attr)
        traced = self._wrapper(name, original, flag)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "repro"
                    and vars(mod).get(attr) is original):
                self._set(mod, attr, traced)

    def wrap_method(self, cls: type, attr: str, name: str,
                    flag: Optional[Callable[[Any], bool]] = None) -> None:
        self._set(cls, attr, self._wrapper(name, getattr(cls, attr), flag))

    def wrap_http_handler(self, handler_cls: type) -> None:
        """Scope each request's server-side spans to its request id."""
        for attr in ("do_GET", "do_POST"):
            original = getattr(handler_cls, attr)

            def handle(handler: Any, _original=original) -> None:
                self._local.base = (None, handler.headers.get(HEADER))
                try:
                    _original(handler)
                finally:
                    self._local.base = (None, None)
            self._set(handler_cls, attr, handle)

    def propagate(self, executor: Any) -> None:
        """Run work submitted to ``executor`` under the submitter's
        context, so worker spans get the right parent and request id."""
        original = executor.submit

        def submit(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            ctx = self.context()

            def run(*a: Any, **k: Any) -> Any:
                self._local.base = ctx
                try:
                    return fn(*a, **k)
                finally:
                    self._local.base = (None, None)
            return original(run, *args, **kwargs)
        self._set(executor, "submit", submit)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def summary(self) -> Dict[str, LayerStats]:
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start_ns, span.end_ns))
        acc: Dict[str, List[float]] = defaultdict(lambda: [0, 0, 0, 0])
        for span in self.spans:
            duration = span.end_ns - span.start_ns
            row = acc[span.name]
            row[0] += 1
            row[1] += duration
            row[2] += duration - _covered(span, children.get(span.sid, ()))
            row[3] += bool(span.flag)
        return {name: LayerStats(int(c), t / 1e9, s / 1e9, int(f))
                for name, (c, t, s, f) in acc.items()}

    def write(self, path: Any) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def _covered(span: Span, intervals: Any) -> int:
    """Nanoseconds of ``span`` covered by the union of ``intervals``."""
    total = 0
    cursor = span.start_ns
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, span.end_ns)
        if end > start:
            total += end - start
            cursor = end
    return total
