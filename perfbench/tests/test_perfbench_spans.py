import pytest

from spans import (Patches, Span, Target, Tracer, coverage, layer_self_times,
                   self_times)


def tree():
    # bench.op [0, 10]
    # ├── models.fit [1, 5]
    # │   └── sampling.sweep [2, 4]
    # └── core.phi [6, 9]
    # text.encode [11, 12]   (no root: outside any measured operation)
    return [Span(0, "bench.op", 0.0, 10.0, None, "op-0"),
            Span(1, "models.fit", 1.0, 5.0, 0, "op-0"),
            Span(2, "sampling.sweep", 2.0, 4.0, 1, "op-0"),
            Span(3, "core.phi", 6.0, 9.0, 0, "op-0"),
            Span(4, "text.encode", 11.0, 12.0, None, None)]


def test_self_time_subtracts_direct_children():
    assert self_times(tree()) == {0: 3.0, 1: 2.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_layer_self_times_and_coverage_of_a_hand_built_tree():
    assert layer_self_times(tree()) == {"models": 2.0, "sampling": 2.0,
                                        "core": 3.0}
    assert coverage(tree()) == pytest.approx(7.0 / 10.0)


def test_tracer_records_parent_and_request():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.request = "op-7"
    with tracer.span("bench.op"):
        with tracer.span("session.infer"):
            pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert inner.request == "op-7"
    assert (outer.start, inner.start, inner.end, outer.end) == (0, 1, 2, 3)


class Thing:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return x * 2


def test_patches_wrap_and_restore():
    tracer = Tracer()
    patches = Patches(tracer, [
        Target(__name__, "Thing.method", "models.method"),
        Target(__name__, "Thing.build", "models.build")])
    original = Thing.__dict__["build"]
    with patches.installed():
        assert Thing().method(1) == 2
        assert Thing.build(3) == 6
    assert [s.name for s in tracer.spans] == ["models.method",
                                              "models.build"]
    assert Thing.__dict__["build"] is original
    assert Thing().method(1) == 2 and len(tracer.spans) == 2


def test_missing_target_is_unmeasured_not_a_crash():
    patches = Patches(Tracer(), [
        Target(__name__, "Thing.gone", "models.gone"),
        Target("no_such_module_here", "f", "text.f"),
        Target(__name__, "Thing.method", "models.method")])
    with patches.installed():
        assert Thing().method(0) == 1
    assert set(patches.unmeasured) == {
        f"{__name__}.Thing.gone", "no_such_module_here.f"}
