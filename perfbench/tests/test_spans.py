"""Self-time arithmetic of the span wrappers, on one and two threads."""

import threading

import pytest

import spans


@pytest.fixture
def clock(monkeypatch):
    """A fake ``perf_counter`` the test advances by hand."""
    now = [0.0]
    monkeypatch.setattr(spans, "perf_counter", lambda: now[0])
    return now


def test_nested_span_self_time_excludes_children(clock):
    tracer = spans.Tracer()

    def inner():
        clock[0] += 2.0

    def outer():
        clock[0] += 1.0
        traced_inner()
        traced_inner()
        clock[0] += 3.0

    traced_inner = tracer.wrapper(inner, "inner")
    tracer.wrapper(outer, "outer")()
    totals = tracer.totals()
    assert totals["outer"].self_s == 4.0
    assert totals["inner"].self_s == 4.0
    assert (totals["outer"].calls, totals["inner"].calls) == (1, 2)


def test_same_name_recursion_charges_each_level_once(clock):
    tracer = spans.Tracer()

    def step(depth):
        clock[0] += 1.0
        if depth:
            traced(depth - 1)

    traced = tracer.wrapper(step, "step")
    traced(2)
    stats = tracer.totals()["step"]
    assert (stats.self_s, stats.calls) == (3.0, 3)


def test_spans_on_two_threads_do_not_nest(clock):
    """Thread B's span runs while thread A's outer span is open; it must
    not be charged to A as child time."""
    tracer = spans.Tracer()
    a_open, b_done = threading.Event(), threading.Event()

    def b_work():
        clock[0] += 5.0

    def a_outer():
        a_open.set()
        assert b_done.wait(5)
        clock[0] += 1.0
        traced_inner()

    def a_inner():
        clock[0] += 2.0

    traced_inner = tracer.wrapper(a_inner, "a.inner")
    traced_b = tracer.wrapper(b_work, "b")

    def thread_b():
        assert a_open.wait(5)
        traced_b()
        b_done.set()

    other = threading.Thread(target=thread_b)
    other.start()
    tracer.wrapper(a_outer, "a.outer")()
    other.join(5)
    assert not other.is_alive()
    totals = tracer.totals()
    assert totals["a.outer"].self_s == 6.0  # 8 s open, 2 s in its own child
    assert totals["a.inner"].self_s == 2.0
    assert totals["b"].self_s == 5.0


def test_failures_and_tallies_are_counted(clock):
    tracer = spans.Tracer()

    def maybe(n):
        if n < 0:
            raise ValueError(n)
        return list(range(n))

    traced = tracer.wrapper(maybe, "maybe", tally=lambda a, k, r: (len(r), 1))
    traced(3)
    traced(4)
    with pytest.raises(ValueError):
        traced(-1)
    stats = tracer.totals()["maybe"]
    assert (stats.calls, stats.errors, stats.a, stats.b) == (3, 1, 7.0, 2.0)


def test_wrap_and_uninstall_restore_the_original():
    class Thing:
        def value(self):
            return 7

    original = Thing.__dict__["value"]
    tracer = spans.Tracer()
    tracer.wrap(Thing, "value", "thing.value")
    assert Thing().value() == 7
    assert Thing.__dict__["value"] is not original
    tracer.uninstall()
    assert Thing.__dict__["value"] is original
    assert tracer.totals()["thing.value"].calls == 1


def test_entry_point_self_time_counts_as_other_not_covered(clock):
    import layers

    tracer = spans.Tracer()

    def measure_step():
        clock[0] += 3.0

    def front():
        clock[0] += 1.0  # work no named layer covers
        traced_measure()

    traced_measure = tracer.wrapper(measure_step, "design.measure")
    tracer.wrapper(front, "design.front")()
    metrics = layers.layer_metrics(tracer.totals())
    assert metrics["design.front_s"] == 1.0
    assert metrics["design.measure_s"] == 3.0
    assert metrics["trace.covered_s"] == 3.0
