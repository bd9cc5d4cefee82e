"""Tests of the benchmark's own arithmetic and determinism.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import pytest

from perfbench import runner
from perfbench.layers import LAYERS, family_targets, layer_targets
from perfbench.measure import (
    HostProfiler,
    RequestLog,
    exact_rps,
    nearest_rank,
    union_length,
    virtual_self_ms,
)
from repro.obs import Tracer

#: Shrunken workloads: same code paths, a few hundred milliseconds each.
SMALL = {
    "retwis-causal": dict(requests=150, threads=24, users=60, seed_tweets=200),
    "prediction-open": dict(requests=120, threads=12, image_side=64),
    "session-dsc": dict(requests=150, dag_count=30, populated_keys=300),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_virtual_metrics_and_checks(name):
    first = runner.run_phase(name, 5, **SMALL[name])
    second = runner.run_phase(name, 5, setups=2, **SMALL[name])
    traced = runner.run_phase(name, 5, traced=True, **SMALL[name])
    assert len(first.setup_s) == 1 and len(second.setup_s) == 2
    assert first.fingerprint() == second.fingerprint() == traced.fingerprint()
    assert runner.failed_checks([first, traced]) == []
    virtual = ("virtual_rps", "virtual_p50_ms", "virtual_p99_ms", "error_rate")
    one, two = runner.end_to_end([[first]]), runner.end_to_end([[second]])
    assert {k: one[k] for k in virtual} == {k: two[k] for k in virtual}
    assert one["error_rate"] == 0.0
    # Every metric BENCHMARK.json declares is produced.
    assert set(runner.declared_units("end_to_end")) <= set(one)
    assert set(runner.declared_units("per_layer")) <= set(runner.per_layer([first], [traced]))


def test_different_seeds_give_different_inputs():
    name = "session-dsc"
    assert (runner.run_phase(name, 1, **SMALL[name]).fingerprint()
            != runner.run_phase(name, 2, **SMALL[name]).fingerprint())


class _Clock:
    """A nanosecond clock that only moves when a test advances it."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_host_self_time_subtracts_nested_wrapped_calls():
    clock = _Clock()
    profiler = HostProfiler(clock=clock)

    def leaf():
        clock.now += 5

    def middle():
        clock.now += 10
        wrapped_leaf()
        clock.now += 1
        wrapped_leaf()

    def outer():
        clock.now += 100
        wrapped_middle()
        clock.now += 7

    wrapped_leaf = profiler.wrap("lattices", "leaf", leaf)
    wrapped_middle = profiler.wrap("cache", "middle", middle)
    wrapped_outer = profiler.wrap("scheduler", "outer", outer)
    wrapped_outer()
    assert profiler.self_ns == {"lattices": 10, "cache": 11, "scheduler": 107}
    assert profiler.inclusive_ns == {"leaf": 10, "middle": 21, "outer": 128}
    assert profiler.calls == {"leaf": 2, "middle": 1, "outer": 1}
    # Same-layer nesting (recursion) still sums to the outermost duration.
    profiler.reset()
    wrapped_middle()
    assert profiler.self_ns["cache"] + profiler.self_ns["lattices"] == 21


def test_host_profiler_install_restores_originals():
    class Layer:
        def work(self):
            return 3

    original = Layer.__dict__["work"]
    profiler = HostProfiler()
    profiler.install([("cache", Layer, "work")])
    assert Layer().work() == 3
    assert profiler.calls == {"Layer.work": 1}
    profiler.uninstall()
    assert Layer.__dict__["work"] is original


def test_missing_entry_points_raise_instead_of_losing_their_wrapper():
    class Base:
        def read(self):
            return 1

    class Override(Base):
        def read(self):
            return 2

    class Plain(Base):
        pass

    # Each owner that defines the attribute itself is wrapped.
    assert family_targets("consistency", (Base, Override, Plain), "read") == [
        ("consistency", Base, "read"), ("consistency", Override, "read")]
    with pytest.raises(AttributeError):
        family_targets("consistency", (Override, Plain), "read_many")
    # A single owner must define the attribute itself.
    with pytest.raises(AttributeError):
        HostProfiler().install([("consistency", Plain, "read")])


def test_every_layer_entry_point_installs_on_the_program():
    profiler = HostProfiler()
    profiler.install(layer_targets())
    try:
        assert {layer for layer, _, _ in layer_targets()} == set(LAYERS)
    finally:
        profiler.uninstall()


def test_virtual_self_time_unions_overlapping_fork_spans():
    tracer = Tracer(sample_rate=1.0)
    root = tracer.start_trace("request", "client", 0.0)
    batch = root.child("multi_get", "cache", 2.0)
    # Overlapped fetch branches: [3, 7] and [4, 9] cover [3, 9] once.
    batch.child("fetch", "anna", 3.0).finish(7.0)
    batch.child("fetch", "anna", 4.0).finish(9.0)
    # A child outliving its parent is clipped to the parent's interval.
    batch.child("fetch", "anna", 10.0).finish(14.0)
    batch.finish(12.0)
    root.finish(20.0)
    self_ms = virtual_self_ms(tracer.spans)
    assert self_ms["client"] == pytest.approx(20.0 - 10.0)
    assert self_ms["cache"] == pytest.approx(10.0 - (6.0 + 2.0))
    assert self_ms["anna"] == pytest.approx(4.0 + 5.0 + 4.0)
    assert union_length([(1.0, 2.0), (1.5, 3.0), (5.0, 5.0), (6.0, 7.0)]) == 3.0


def test_exact_throughput_counts_completions_inside_the_load_window():
    closed = RequestLog()
    for start, end in [(0.0, 10.0), (0.0, 25.0), (10.0, 30.0), (25.0, 126.4)]:
        closed.issue(start)
        closed.complete(start, end)
    # The last issue closes the window; it never completes, so it fails.
    closed.issue(30.0)
    assert closed.failed == 1
    assert closed.window_ms() == 30.0
    assert closed.span_ms() == 126.4
    # Completions at 10, 25 and 30 ms fall inside [0, 30]; the 126.4 ms
    # straggler is drain and stays out of the rate.
    assert exact_rps([closed]) == pytest.approx(3 / 0.030)
    # Pooled runs: in-window completions over the sum of their windows.
    other = RequestLog()
    for start, end in [(1000.0, 1010.0), (1020.0, 1050.0)]:
        other.issue(start)
        other.complete(start, end)
    assert exact_rps([closed, other]) == pytest.approx(4 / (0.030 + 0.020))
    assert exact_rps([RequestLog()]) == 0.0


def test_nearest_rank_reports_samples_beyond_the_percentile():
    samples = [float(value) for value in range(1, 1001)]
    assert nearest_rank(samples, 50.0) == (500.0, 500)
    assert nearest_rank(samples, 99.0) == (990.0, 10)
