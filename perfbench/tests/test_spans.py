import math
from types import SimpleNamespace

import pytest

from spans import Span, Tracer, covered, self_time


class FakeClock:
    """Advances only when told to, so span times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)]) == 5.0
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(11.0, 12.0), (-3.0, -1.0)]) == 0.0
    assert covered(0.0, 10.0, [(4.0, 6.0), (1.0, 2.0)]) == 3.0


def test_self_time_subtracts_children_and_aggregated_calls():
    parent = Span(0, "p", None, 0.0, 10.0, calls={"solver.step": [4, 1.5]})
    kids = [Span(1, "a", 0, 1.0, 3.0), Span(2, "b", 0, 4.0, 6.0)]
    assert self_time(parent, kids) == pytest.approx(10.0 - 4.0 - 1.5)


def make_module(clock):
    mod = SimpleNamespace()

    def leaf(x):
        clock.advance(2.0)
        return x

    def tick():
        clock.advance(0.5)

    def outer(x):
        clock.advance(1.0)
        mod.leaf(x)
        for _ in range(3):
            mod.tick()
        clock.advance(1.0)
        return x

    mod.leaf, mod.tick, mod.outer = leaf, tick, outer
    return mod


def test_wrapped_calls_nest_and_self_times_sum_to_root():
    clock = FakeClock()
    mod = make_module(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(mod, "outer", "layer.outer", describe=lambda args, kwargs, result: {"x": result})
    tracer.wrap(mod, "leaf", "layer.leaf")
    tracer.wrap(mod, "tick", "layer.tick", aggregate=True)
    with tracer.span("root") as root:
        mod.outer(7)
        clock.advance(0.25)
    tracer.unwrap_all()

    names = [sp.name for sp in tracer.spans]
    assert names == ["root", "layer.outer", "layer.leaf"]
    outer = tracer.spans[1]
    assert outer.parent == root.id and tracer.spans[2].parent == outer.id
    assert outer.attrs["x"] == 7
    assert outer.calls == {"layer.tick": [3, 1.5]}
    selfs = tracer.self_times()
    assert selfs[outer.id] == pytest.approx(2.0)  # 5.5 total - 2 leaf - 1.5 ticks
    assert selfs[root.id] == pytest.approx(0.25)
    aggregated = sum(sec for sp in tracer.spans for _, sec in sp.calls.values())
    assert sum(selfs.values()) + aggregated == pytest.approx(root.duration)


def test_unwrap_restores_originals_and_missing_attributes_are_skipped():
    clock = FakeClock()
    mod = make_module(clock)
    original = mod.leaf
    tracer = Tracer(clock=clock)
    tracer.wrap(mod, "leaf", "layer.leaf")
    tracer.wrap(mod, "removed", "layer.removed")
    assert mod.leaf is not original
    tracer.unwrap_all()
    assert mod.leaf is original
    assert not hasattr(mod, "removed")


def test_exception_closes_span_and_is_recorded():
    clock = FakeClock()
    mod = SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer(clock=clock)
    tracer.wrap(mod, "boom", "layer.boom")
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    sp = tracer.spans[0]
    assert sp.attrs["error"] == "ZeroDivisionError"
    assert not math.isnan(sp.end)


def test_aggregated_call_outside_any_span_is_not_recorded():
    clock = FakeClock()
    mod = make_module(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(mod, "tick", "layer.tick", aggregate=True)
    mod.tick()
    assert tracer.spans == []
