"""Spans recorded from outside the reasoner.

A ``Tracer`` replaces functions by wrappers at the module attributes their
callers look them up through (``dalc.closure.entails`` is what
``compute_ranking`` calls, ``dalc.cli.entails`` what ``dalc check`` calls),
and restores them afterwards.  Each call becomes a span: name, layer,
operation id, parent span, start and end, and whatever the wrapper reads off
the arguments or the result.  Spans stay in memory until the run ends.

The run is one thread, so spans nest: a span's self time is its duration
minus its direct children's durations, and the self times of all spans add
up to the durations of the root spans.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Callable, Optional


class Span:
    __slots__ = ("name", "layer", "op", "parent", "start", "end", "children_s", "info", "error")

    def __init__(self, name: str, layer: str, op: int, parent: Optional["Span"]):
        self.name = name
        self.layer = layer
        self.op = op
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.children_s = 0.0
        self.info: Any = None
        self.error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def within(self, name: str) -> bool:
        """Whether some ancestor (or the span itself) is called ``name``."""
        s: Optional[Span] = self
        while s is not None:
            if s.name == name:
                return True
            s = s.parent
        return False


# (result, args, kwargs, state) -> info stored on the span
InfoFn = Callable[[Any, tuple, dict, Any], Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._current: Optional[Span] = None
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self.op, self._current)
        self.spans.append(span)
        self._current = span
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._current = span.parent
        if span.parent is not None:
            span.parent.children_s += span.duration

    def root(self, op: int, name: str) -> "_Root":
        """Context manager for the root span of operation ``op``."""
        self.op = op
        return _Root(self, name)

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        layer: str,
        info: Optional[InfoFn] = None,
        before: Optional[Callable[[tuple, dict], tuple[tuple, dict, Any]]] = None,
    ) -> None:
        """Wrap ``owner.attr`` in a span.  ``before`` may rewrite the
        arguments and keep state for ``info``, which runs after the call."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                tracer._close(span)
                if info is not None:
                    span.info = info(None, args, kwargs, state)
                raise
            tracer._close(span)
            if info is not None:
                span.info = info(result, args, kwargs, state)
            return result

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        self.span = self.tracer._open(self.name, "harness")
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.span)


def stats_injector(fn: Callable, stats_cls: type) -> Optional[Callable]:
    """A ``before`` hook for ``entails``-like functions: make sure a stats
    object is passed, so the wrapper can read the nodes the call expands.

    A call without one gets a fresh object, which is what the function
    would create itself, so budgets keep their meaning.  Returns None when
    the function takes no ``stats`` parameter."""
    sig = inspect.signature(fn)
    if "stats" not in sig.parameters:
        return None

    def before(args: tuple, kwargs: dict):
        bound = sig.bind(*args, **kwargs)
        stats = bound.arguments.get("stats")
        if stats is None:
            stats = stats_cls()
            bound.arguments["stats"] = stats
        return bound.args, bound.kwargs, (stats, stats.nodes_expanded)

    return before


def concept_size(c: object) -> int:
    """Nodes of a concept tree, counted without knowing its classes: every
    object reached through ``left``, ``right``, ``operand`` or ``filler``."""
    size = 0
    stack = [c]
    while stack:
        node = stack.pop()
        size += 1
        for attr in ("left", "right", "operand", "filler"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
    return size
