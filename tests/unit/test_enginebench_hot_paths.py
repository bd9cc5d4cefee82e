"""The hot-path enginebench scenarios: counts, rates and fetch-free checks."""

from repro.bench.enginebench import (
    bench_causal_cut,
    bench_causal_merge,
    bench_locality_scoring,
)


def assert_loop_rate(result, count_key):
    # loop_seconds is rounded to 0.1 ms; per_sec comes from the exact time.
    loop_seconds, count = result["loop_seconds"], result[count_key]
    assert loop_seconds > 0.0
    assert count / (loop_seconds + 5e-5) <= result["per_sec"]
    assert result["per_sec"] <= count / max(loop_seconds - 5e-5, 1e-9)


def test_causal_merge_counts_every_merge_and_is_deterministic():
    first = bench_causal_merge(rounds=40, authors=4, pushes=3, repeats=2)
    second = bench_causal_merge(rounds=40, authors=4, pushes=3, repeats=1)
    assert first["merges"] == 40 * (1 + 3)
    assert first["checksum"] == second["checksum"] > 0
    assert_loop_rate(first, "merges")


def test_causal_cut_times_checks_without_fetching():
    result = bench_causal_cut(keys=20, deps_per_key=4, rounds=3,
                              clock_width=16, repeats=2)
    assert result["checks"] == 3 * 20 * 4
    assert result["dependency_fetches"] == 0.0
    assert_loop_rate(result, "checks")


def test_locality_scoring_places_every_request():
    result = bench_locality_scoring(placements=30, vms=5, threads_per_vm=2,
                                    keys=20, references=3, repeats=2)
    assert result["threads"] == 10.0
    assert result["placed"] == result["placements"] == 30.0
    assert_loop_rate(result, "placements")
