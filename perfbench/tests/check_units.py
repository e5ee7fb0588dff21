"""Unit checks of the benchmark's arithmetic and input generation.

Run with ``python -m pytest perfbench/tests -o python_files='check_*.py'``.
"""

from __future__ import annotations

import pytest

from perfbench import inputs
from perfbench.stats import percentile, samples_beyond, tail_percentile
from perfbench.tracing import NullTracer, Span, Tracer, covered_length, self_times


def span(span_id, start, end, parent=None):
    return Span(span_id, f"s{span_id}", start, end, parent, "run")


def test_self_time_subtracts_children():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 3.0, 0), span(2, 7.0, 8.0, 0)]
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, 0), span(2, 2.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(0, 2.0, 6.0), span(1, 0.0, 3.0, 0), span(2, 5.0, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_self_time_ignores_grandchildren():
    spans = [span(0, 0.0, 10.0), span(1, 0.0, 4.0, 0), span(2, 1.0, 2.0, 1)]
    assert self_times(spans) == {0: 6.0, 1: 3.0, 2: 1.0}


def test_covered_length_of_disjoint_and_nested_intervals():
    assert covered_length([(1, 2), (3, 4), (3.5, 3.8)], 0, 10) == pytest.approx(2.0)
    assert covered_length([], 0, 10) == 0.0


def test_tracer_nests_spans_and_restores_patched_attributes():
    class Layer:
        def work(self, n):
            return n * 2

    tracer = Tracer("run")
    original = Layer.work
    with tracer.span("outer"):
        with tracer.patch(Layer, "work", "inner", lambda attrs, args, result: attrs.update(out=result)):
            assert Layer().work(3) == 6
    assert Layer.work is original
    outer, inner = tracer.spans
    assert inner.parent == outer.span_id and inner.attrs == {"out": 6}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_null_tracer_records_nothing_and_patches_nothing():
    class Layer:
        def work(self):
            return 1

    original = Layer.work
    with NullTracer().patch(Layer, "work", "x"), NullTracer().span("y"):
        assert Layer.work is original


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1200) == 99.0
    assert samples_beyond(1200, 99.0) == 12
    assert tail_percentile(900) == 98.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(39) is None
    for n in (40, 100, 333, 1000, 10_000):
        assert samples_beyond(n, tail_percentile(n)) >= 10


def test_inputs_are_a_function_of_the_seed():
    import random

    first = inputs.stratified_taus(random.Random(5), 4)
    assert first == inputs.stratified_taus(random.Random(5), 4)
    assert first != inputs.stratified_taus(random.Random(6), 4)
    low = [tau for tau in first if tau < 0.5]
    high = [tau for tau in first if tau > 0.5]
    assert len(low) == len(high) == 4
    assert all(0.35 <= tau <= 0.49 for tau in low) and all(0.51 <= tau <= 0.65 for tau in high)
    plans = [inputs.QueryPlan([0.4, 0.6], first, 1, seed=9) for _ in range(2)]
    streams = [plan.stream(500) for plan in plans]
    assert inputs.digest(streams[0]) == inputs.digest(streams[1])
    computes = [q for q in streams[0] if q.kind == "compute"]
    assert len(computes) == 500 // inputs.DECK
    assert len({(q.rho, q.tau) for q in computes}) == len(computes)
    assert all(0.29 <= q.tau <= 0.30 for q in computes)


def test_host_clock_scales_by_the_bracketing_references_and_stops_its_helpers():
    from perfbench.calibrate import NOMINAL_S, HostClock

    with HostClock() as clock:
        helpers = list(clock._helpers)
        assert len(helpers) == 2 and all(helper.is_alive() for helper in helpers)
        factor = clock.mark()
        before, after = clock.references[-2:]
        assert factor == pytest.approx(NOMINAL_S / ((before + after) / 2))
        assert clock.describe()["factors"] == [round(factor, 3)]
    assert not any(helper.is_alive() for helper in helpers)


def test_every_seed_draws_the_same_thresholds():
    import math
    import random

    for agents in (9, 25, 49):
        draws = [inputs.stratified_taus(random.Random(seed), 4, agents) for seed in range(50)]
        assert len({tuple(math.ceil(tau * agents) for tau in taus) for taus in draws}) == 1
    taus = inputs.stratified_taus(random.Random(1), 4, 49)
    assert len(set(math.ceil(tau * 49) for tau in taus)) == 8


def test_off_grid_points_stay_inside_the_grid():
    import random

    rhos = [0.35, 0.41, 0.47, 0.53, 0.59, 0.65]
    for seed in range(40):
        taus = inputs.stratified_taus(random.Random(seed), 4)
        plan = inputs.QueryPlan(rhos, taus, 1, seed=seed)
        for query in plan.pool + [q for q in plan.hot if not q.exact]:
            assert min(rhos) <= query.rho <= max(rhos)
            assert min(taus) <= query.tau <= max(taus)
