"""In-memory span recorder that times library functions from outside.

A ``Tracer`` replaces module attributes with timing wrappers, so every call
that goes through that attribute (including calls the library makes to its
own module globals) opens a span with a name, start, end and parent id.
Functions called once per time step are aggregated instead: the enclosing
span keeps a call count and the total time, so a long simulation records one
span, not one per step. Spans stay in memory until ``write_jsonl``.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def current_rss_mb() -> float:
    """Resident set size of this process now (not the peak), or NaN where
    /proc is unavailable."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE_MB
    except OSError:
        return math.nan


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)
    # aggregated per-call functions run inside this span: name -> [calls, seconds]
    calls: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the calls it wraps; single-threaded use only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple] = []
        self._in_aggregate = 0

    @contextmanager
    def span(self, name, **attrs):
        sp = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1].id if self._stack else None,
            start=self.clock(),
            attrs=attrs,
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            sp.end = self.clock()

    def wrap(self, module, attr, name, describe=None, aggregate=False):
        """Replace ``module.attr`` by a timing wrapper; a missing attribute is
        skipped (the function may have been removed). ``describe(args, kwargs,
        result)`` returns span attributes such as problem sizes."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        tracer = self

        if aggregate:

            def wrapper(*args, **kwargs):
                if not tracer._stack or tracer._in_aggregate:
                    return fn(*args, **kwargs)
                tracer._in_aggregate += 1
                t0 = tracer.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = tracer.clock() - t0
                    tracer._in_aggregate -= 1
                    rec = tracer._stack[-1].calls.setdefault(name, [0, 0.0])
                    rec[0] += 1
                    rec[1] += dt

        else:

            def wrapper(*args, **kwargs):
                if tracer._in_aggregate:
                    return fn(*args, **kwargs)
                with tracer.span(name, rss_start_mb=current_rss_mb()) as sp:
                    result = fn(*args, **kwargs)
                    sp.attrs["rss_end_mb"] = current_rss_mb()
                    if describe is not None:
                        sp.attrs.update(describe(args, kwargs, result))
                    return result

        wrapper.__wrapped__ = fn
        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def unwrap_all(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def children(self):
        out = {sp.id: [] for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent].append(sp)
        return out

    def self_times(self) -> dict:
        """Self time of every span: see ``self_time``."""
        kids = self.children()
        return {sp.id: self_time(sp, kids[sp.id]) for sp in self.spans}

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def covered(start, end, intervals) -> float:
    """Length of the part of [start, end] that the union of intervals covers."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the part its child spans cover, minus the time of
    aggregated calls made directly inside it."""
    child_cover = covered(span.start, span.end, [(c.start, c.end) for c in children])
    aggregated = sum(sec for _, sec in span.calls.values())
    return span.duration - child_cover - aggregated
