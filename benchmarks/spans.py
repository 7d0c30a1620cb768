"""Outside-in layer tracing for the benchmark.

poisonlab's modules bind each other's functions by name at import
(``results`` holds its own ``defend_and_train``, ``kkt`` its own ``train``),
so a wrapper only sees a call if it replaces the name where the caller looks
it up. ``Tracer.install`` wraps each target function once and rebinds every
module-level alias of it; methods are replaced on their class.

Spans are kept in memory and aggregated when the run ends. A span's self
time is its duration minus the part of its interval that child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None   # index of the enclosing span in Tracer.spans
    failed: bool = False        # ended by an exception (a deadline stop too)
    tag: str | None = None      # e.g. the defense kind a defenses call served


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: duration minus the union of its children's
    intervals, clipped to the span (children of one span may overlap when
    they ran on different threads)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    fail: int = 0
    durations: list = field(default_factory=list)

    def p50(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


def aggregate(spans: list[Span]) -> tuple[dict, dict]:
    """Per span name: calls, inclusive and self seconds, failures and
    durations; and per tag: self seconds."""
    by_name: dict[str, LayerStats] = {}
    by_tag: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        st = by_name.setdefault(s.name, LayerStats())
        st.calls += 1
        st.total_s += s.end - s.start
        st.self_s += own
        st.fail += s.failed
        st.durations.append(s.end - s.start)
        if s.tag is not None:
            by_tag[s.tag] = by_tag.get(s.tag, 0.0) + own
    return by_name, by_tag


class Tracer:
    """Records one span per call of each installed function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, tag_of=None):
        spans, clock, local, lock = self.spans, self.clock, self._local, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, clock(), parent=stack[-1] if stack else None,
                        tag=tag_of(args, kwargs) if tag_of else None)
            with lock:  # worker threads append too
                stack.append(len(spans))
                spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self, targets, modules, tag_of=None):
        """``targets`` holds (span name, owner, attribute) triples, where the
        owner is a module or a class. Each function is wrapped once; module
        attributes in ``modules`` that are the same object are rebound to the
        wrapper too."""
        for name, owner, attr in targets:
            orig = owner.__dict__[attr]
            wrapped = self.wrap(name, orig, tag_of)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
