"""Engine-throughput microbenchmark: the events/sec regression gate.

Measures the discrete-event core with no Cloudburst stack in the way
(dispatch loop, cancel/tombstone churn, recurring maintenance ticks, charge
accounting, queue reservations — see :mod:`repro.bench.enginebench` for the
scenario definitions) and fails if the headline events/sec falls below the
recorded floor: that would mean the optimization-pass win is gone and every
figure's harness runtime regresses with it.

Also runnable standalone (CI does this, uploading the profile as an
artifact)::

    python benchmarks/bench_engine_micro.py                      # gate only
    python benchmarks/bench_engine_micro.py --profile profile.txt
"""

import argparse
import cProfile
import io
import json
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import emit

from repro.bench import run_engine_micro, engine_throughput_errors
from repro.sim import format_table


def _rows(section: dict) -> list:
    rows = []
    for name, scenario in section["scenarios"].items():
        count = (scenario.get("events") or scenario.get("charges")
                 or scenario.get("reservations") or scenario.get("merges")
                 or scenario.get("checks") or scenario.get("placements") or 0.0)
        rate = (scenario.get("charges_per_sec")
                or scenario.get("reservations_per_sec")
                or scenario.get("per_sec")
                or (count / scenario["wall_seconds"]
                    if scenario["wall_seconds"] else 0.0))
        rows.append([name, f"{int(count):,}", f"{scenario['wall_seconds']:.3f}",
                     f"{rate:,.0f}"])
    return rows


def test_engine_microbenchmark(bench_once):
    section = bench_once(run_engine_micro)
    emit("Engine throughput microbenchmark",
         format_table(["scenario", "count", "wall (s)", "per sec"],
                      _rows(section)))
    emit("Headline",
         f"{section['events_per_sec']:,.1f} events/s "
         f"(floor {section['floor_events_per_sec']:,.0f}, "
         f"{section['speedup_vs_pre_pr']}x vs pre-optimization baseline); "
         f"{section['sim_ms_per_wall_ms']}x real time under recurring ticks")
    assert engine_throughput_errors(section) == []
    # Parity pin: skipping the itemised charge log must not change the
    # simulated outcome, only the wall cost.
    assert (section["scenarios"]["charge_log"]["checksum"]
            == section["scenarios"]["charge_log_unlogged"]["checksum"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="run under cProfile and write the top functions "
                             "(cumulative time) to PATH")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the engine_throughput section to PATH")
    args = parser.parse_args(argv)

    # The gate always runs un-profiled: cProfile's tracing overhead slows the
    # loop several-fold, so gating on profiled numbers would always fail.
    section = run_engine_micro()

    if args.profile:
        profiler = cProfile.Profile()
        profiler.runcall(run_engine_micro)
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.strip_dirs().sort_stats("cumulative").print_stats(40)
        with open(args.profile, "w") as handle:
            handle.write(stream.getvalue())
        print(f"wrote profile to {args.profile} (timings under cProfile "
              f"overhead; the gate numbers below are from the un-profiled run)")

    print(json.dumps(section, indent=2, sort_keys=True))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(section, handle, indent=2, sort_keys=True)
    errors = engine_throughput_errors(section)
    if errors:
        for error in errors:
            print(f"ENGINE GATE FAILURE: {error}", file=sys.stderr)
        return 1
    print(f"engine gate ok: {section['events_per_sec']:,.1f} events/s >= "
          f"floor {section['floor_events_per_sec']:,.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
