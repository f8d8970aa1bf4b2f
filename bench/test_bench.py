"""Tests of the benchmark's own machinery: tracing, self time, judging.

The workload runs themselves are not tests; ``bench/run.py`` runs them.
"""
import itertools
import signal
import time

import pytest

import run
import speed
import workloads
from sample import LayerProbe
from trace_spans import Tracer, self_times


class Boom(Exception):
    pass


def test_wrapper_returns_results_and_raises_unchanged():
    tracer = Tracer()
    payload = object()
    error = Boom("x")

    def give(a, b=None):
        return payload

    def fail():
        raise error

    assert tracer.wrap("t.give", give)(1, b=2) is payload
    with pytest.raises(Boom) as caught:
        tracer.wrap("t.fail", fail)()
    assert caught.value is error
    assert not tracer.stack
    assert tracer.summary()["t.fail"][0] == 1


def test_install_wraps_every_binding_and_preserves_results():
    import lepage
    import lepage.expr
    import lepage.jets
    from lepage import X, Y
    from lepage.charts import FiberVar, MultiIndex

    e = Y(1, 1) ** 3 * X(1) + Y(1, 1) / Y(1)
    v = FiberVar(1, MultiIndex((1,)))
    plain = lepage.expr.diff(e, v)
    original = lepage.expr.diff
    tracer = Tracer()
    tracer.install({"expr.diff": None})
    try:
        assert lepage.expr.diff is not original
        assert lepage.jets.diff is lepage.expr.diff
        assert lepage.diff is lepage.expr.diff
        assert lepage.expr.expr_key(lepage.expr.diff(e, v)) == lepage.expr.expr_key(plain)
        assert lepage.total_derivative(e, 1, lepage.ChartContext(2, 1, 1)) is not None
    finally:
        tracer.uninstall()
    assert lepage.expr.diff is original and lepage.jets.diff is original
    calls, _ = tracer.summary()["expr.diff"]
    assert calls >= 2  # the direct call plus the ones made by total_derivative


def test_layer_probe_counts_repeated_diff_calls():
    import lepage
    from lepage import X, Y
    from lepage.charts import FiberVar, MultiIndex

    tracer = Tracer()
    probe = LayerProbe(tracer)
    e = Y(1, 1) ** 3 * X(1) + Y(1, 1) / Y(1)
    v = FiberVar(1, MultiIndex((1,)))
    try:
        for _ in range(3):
            lepage.diff(e, v)
        lepage.diff(e, FiberVar(1, MultiIndex()))
    finally:
        layers = probe.metrics()  # also takes the wrappers out
    assert layers["expr.diff.calls"] == 4
    assert layers["expr.diff.distinct_share"] == 0.5
    assert 0 < layers["expr.diff.repeat_self_s"] < layers["expr.diff.self_s"]


def test_self_times_on_a_synthetic_nest():
    #  root [0, 10]
    #    a [1, 4]
    #      a1 [2, 3]
    #    b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_parents_and_self_time():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("m.outer", outer_body)
    outer()
    assert list(tracer.parent) == [-1, 0, 0]
    summary = tracer.summary()
    assert summary["m.inner"] == (2, 2.0)
    # outer spans ticks 0..5; its children cover 2 of those 5
    assert summary["m.outer"] == (1, 3.0)
    assert sum(s for _, s in summary.values()) <= tracer.end[0] - tracer.start[0]


def _item(workload, item_id):
    return next(i for i in workloads.make_items(workload, seed=1) if i["id"] == item_id)


def test_judge_flags_a_perturbed_cli_output():
    item = _item("cli-session", "el")
    good = dict(item["expect"])
    assert workloads.judge(item, good) is None
    assert workloads.judge(item, dict(good, stdout=good["stdout"].replace("y_22", "y_21"))) is not None
    assert workloads.judge(item, dict(good, exit=2)) is not None
    assert workloads.judge(item, None) is not None


def test_judge_uses_the_known_answer_for_the_tiny_coefficient():
    item = _item("cli-session", "check-trivial-tiny")
    assert workloads.judge(item, {"exit": 1, "stdout": "FAIL euler-lagrange[1]: ..."}) is None
    assert workloads.judge(item, {"exit": 0, "stdout": "PASS euler-lagrange\n"}) is not None


def test_judge_flags_a_wrong_corpus_verdict():
    item = _item("acceptance-corpus", "second-01")
    good = dict(item["expect"])
    assert good["trivial"] is True
    assert workloads.judge(item, good) is None
    assert workloads.judge(item, dict(good, trivial=False)) is not None
    assert workloads.judge(item, {"error": "ValueError: boom"}) is not None


def test_judge_flags_a_changed_form_digest():
    item = _item("wide-chart", "n2m1r1")
    good = dict(item["expect"])
    assert "digest" in good
    assert workloads.judge(item, good) is None
    assert workloads.judge(item, dict(good, digest="0" * 16)) is not None
    assert workloads.judge(item, dict(good, checks=[True, False, True])) is not None


def test_every_item_of_an_unfinished_pass_fails():
    items = workloads.make_items("acceptance-corpus", seed=1)
    tally, lines = run.Tally(), []
    tally.add_unfinished(items, {"failure": "Traceback ...\nMemoryError", "wall": 3.0}, lines)
    assert tally.attempted == tally.failed == tally.unexpected == len(items)
    assert lines and "MemoryError" in lines[0]


def test_wide_chart_sources_depend_only_on_the_seed():
    assert workloads.make_items("wide-chart", 3) == workloads.make_items("wide-chart", 3)
    first = [i["source"] for i in workloads.make_items("wide-chart", 3)]
    other = [i["source"] for i in workloads.make_items("wide-chart", 4)]
    assert first != other


def test_slowdown_is_mean_reference_time_over_nominal():
    nominal = speed.REFERENCE_S
    assert speed.slowdown([nominal, 3 * nominal]) == pytest.approx(2.0)
    assert speed.slowdown([]) == 1.0
    pad = speed.WINDOW_PAD_S
    refs, at = [nominal, 2 * nominal, 4 * nominal], [0.0, 10.0, 10.0 + pad]
    assert speed.item_slowdown(refs, at, 10.0, 10.0, 1.3) == pytest.approx(3.0)
    assert speed.item_slowdown(refs, at, 5.0, 6.0, 1.3) == pytest.approx(1.3)


def test_speed_sampler_times_the_reference_while_running():
    sampler = speed.SpeedSampler()
    before = signal.getsignal(signal.SIGALRM)
    sampler.start()
    try:
        deadline = time.perf_counter() + 4 * speed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.durations) >= 2
    assert sampler.spent == pytest.approx(sum(sampler.durations))
    assert signal.getsignal(signal.SIGALRM) == before
