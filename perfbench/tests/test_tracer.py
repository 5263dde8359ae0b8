"""Span accounting on synthetic trees, and wrapper install/uninstall."""

import sys
import threading

import numpy as np
import pytest

from perfbench import tracer as tr


def span(name, start, end, parent=None, round_id=0, tid=1):
    return [name, start, end, parent, round_id, tid]


def tree():
    """bench.run [0,10] > a [1,9] > (b [2,4], b [5,6] > a [5.2,5.7]); a [9,9.5]."""
    run = span("bench.run", 0.0, 10.0)
    a = span("a", 1.0, 9.0, run)
    b1 = span("b", 2.0, 4.0, a)
    b2 = span("b", 5.0, 6.0, a)
    inner_a = span("a", 5.2, 5.7, b2)
    a2 = span("a", 9.0, 9.5, run)
    return [run, a, b1, b2, inner_a, a2]


def test_self_time_subtracts_direct_children_only():
    agg = tr.aggregate(tree())
    assert agg["bench.run"]["self_s"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert agg["a"]["self_s"] == pytest.approx((8.0 - 3.0) + 0.5 + 0.5)
    assert agg["b"]["self_s"] == pytest.approx(2.0 + (1.0 - 0.5))
    assert sum(row["self_s"] for row in agg.values()) == pytest.approx(10.0)


def test_total_time_skips_reentrant_spans():
    agg = tr.aggregate(tree())
    assert agg["a"]["calls"] == 3
    assert agg["a"]["total_s"] == pytest.approx(8.0 + 0.5)  # inner a not counted twice
    assert agg["b"]["total_s"] == pytest.approx(3.0)


def test_coverage_counts_outermost_layer_spans_in_the_window():
    spans = tree()
    assert tr.coverage(spans, (0.0, 10.0)) == pytest.approx(0.85)
    assert tr.coverage(spans, (8.0, 10.0)) == pytest.approx((1.0 + 0.5) / 2.0)
    other_thread = span("a", 0.0, 10.0, tid=2)
    assert tr.coverage(spans + [other_thread], (0.0, 10.0)) == pytest.approx(0.85)
    assert tr.coverage(spans, (3.0, 3.0)) == 0.0


def test_self_time_table_is_sorted_by_share():
    rows = tr.self_time_table(tree(), wall_s=10.0)
    assert [r["name"] for r in rows] == ["a", "b", "bench.run"]
    assert rows[0]["share"] == pytest.approx(0.6)


def test_chrome_trace_links_parents_by_id():
    events = tr.chrome_trace(tree(), pid=3, label="w")
    assert events[0]["ph"] == "M" and events[0]["args"]["name"] == "w"
    complete = events[1:]
    assert [e["args"]["parent"] for e in complete] == [None, 0, 1, 1, 3, 0]
    assert complete[2]["ts"] == pytest.approx(2.0e6)
    assert complete[2]["dur"] == pytest.approx(2.0e6)
    assert all(e["pid"] == 3 for e in complete)


def test_wrap_records_parent_round_and_probe():
    t = tr.Tracer()
    seen = []

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = t.wrap("inner", inner, probe=lambda *a: seen.append(a[4]))
    wrapped_outer = t.wrap("outer", outer)
    t.round_id = 7
    assert wrapped_outer(1) == 4
    outer_span, inner_span = t.spans
    assert inner_span[tr.PARENT] is outer_span and outer_span[tr.PARENT] is None
    assert inner_span[tr.ROUND] == 7
    assert outer_span[tr.START] <= inner_span[tr.START] <= inner_span[tr.END] <= outer_span[tr.END]
    assert seen == [2]
    assert wrapped_outer.__wrapped__ is outer


def test_wrap_closes_the_span_when_the_callable_raises():
    t = tr.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap("boom", boom)()
    assert t.spans[0][tr.END] >= t.spans[0][tr.START] > 0
    t.wrap("after", lambda: None)()
    assert t.spans[1][tr.PARENT] is None  # the stack was unwound


def test_wrap_uses_per_call_names_and_thread_local_stacks():
    t = tr.Tracer()
    named = t.wrap("x", lambda tag: tag, name_of=lambda args: "x." + args[0])
    named("pgd")
    assert t.spans[0][tr.NAME] == "x.pgd"

    def worker():
        named("aa")

    with t.span("bench.run"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    by_name = {s[tr.NAME]: s for s in t.spans}
    assert by_name["x.aa"][tr.PARENT] is None  # no parent across threads
    assert by_name["x.aa"][tr.TID] != by_name["bench.run"][tr.TID]


def test_wrap_iter_spans_each_item():
    t = tr.Tracer()

    def gen(n):
        yield from range(n)

    assert list(t.wrap_iter("loader", gen)(3)) == [0, 1, 2]
    assert [s[tr.NAME] for s in t.spans] == ["loader"] * 3


def _repro_namespace():
    return {
        (name, attr): id(value)
        for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
        for attr, value in vars(module).items()
    }


def _class_attrs(table):
    import importlib

    return {
        (e["module"], e["cls"], e["method"]): id(
            getattr(importlib.import_module(e["module"]), e["cls"]).__dict__[e["method"]]
        )
        for e in table if "cls" in e
    }


def test_install_patches_every_binding_and_uninstall_restores_repro():
    import repro.baselines  # noqa: F401
    import repro.baselines.jfat as jfat
    import repro.flsim.local as local
    from repro.nn import Conv2d

    from perfbench.layers import TABLE

    modules_before, classes_before = _repro_namespace(), _class_attrs(TABLE)
    original = local.adversarial_local_train
    t = tr.Tracer()
    undo = tr.install(t, TABLE)
    try:
        # the from-import binding inside the baseline is patched too
        assert jfat.adversarial_local_train is local.adversarial_local_train
        assert jfat.adversarial_local_train is not original
        assert jfat.adversarial_local_train.__wrapped__ is original
        conv = Conv2d(1, 1, 3, padding=1)
        conv.forward(np.zeros((1, 1, 4, 4)))
        names = [s[tr.NAME] for s in t.spans]
        assert names[0] == "nn.conv.fwd" and "nn.im2col" in names
        assert t.counters["nn.conv.fwd_flops"] > 0
    finally:
        tr.uninstall(undo)
    assert _repro_namespace() == modules_before
    assert _class_attrs(TABLE) == classes_before
    assert local.adversarial_local_train is original


def test_install_rolls_back_when_an_entry_is_wrong():
    import repro.flsim.local as local

    original = local.adversarial_local_train
    table = [
        {"span": "x", "module": "repro.flsim.local", "func": "adversarial_local_train"},
        {"span": "y", "module": "repro.flsim.local", "func": "no_such_function"},
    ]
    with pytest.raises(AttributeError):
        tr.install(tr.Tracer(), table)
    assert local.adversarial_local_train is original
