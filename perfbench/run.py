#!/usr/bin/env python3
"""Run one benchmark workload; the last line of stdout is the JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload retwis-causal --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, repeating
the workload's fixed amount of work until ``--seconds`` have passed.
``--trace 1`` runs each sub-seed once untraced and once with the layer
wrappers and a tracer installed, checks that both give the same virtual
results, and reports the per-layer metrics.  The published metric names and
units are those ``BENCHMARK.json`` declares.  The exit status is 1 when an
output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    # All load comes from one OS thread: keep numpy's BLAS single-threaded.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import runner, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    seeds = runner.sub_seeds(args.workload, args.seed)
    setups = workloads.WORKLOADS[args.workload].setup_repeats
    if args.trace:
        untraced = [runner.run_phase(args.workload, seed) for seed in seeds]
        traced = [runner.run_phase(args.workload, seed, traced=True) for seed in seeds]
        phases = untraced + traced
        mismatched = [phase.seed for phase, reference in zip(traced, untraced)
                      if phase.fingerprint() != reference.fingerprint()]
        metrics = runner.per_layer(untraced, traced)
        units = runner.declared_units("per_layer")
        shown = units
    else:
        cycles = []
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < args.seconds:
            cycles.append([runner.run_phase(args.workload, seed, setups=setups)
                           for seed in seeds])
        phases = [phase for cycle in cycles for phase in cycle]
        mismatched = [phase.seed for cycle in cycles[1:]
                      for phase, reference in zip(cycle, cycles[0])
                      if phase.fingerprint() != reference.fingerprint()]
        metrics = runner.end_to_end(cycles)
        units = runner.declared_units("end_to_end")
        shown = {**units, "error_rate": "fraction", "latency.samples": "count",
                 "latency.p99_tail_samples": "count"}

    for phase in phases:
        print(f"{args.workload} seed={phase.seed} traced={int(phase.counts is not None)} "
              f"setup={'/'.join(f'{s:.3f}' for s in phase.setup_s)}s cpu={phase.cpu_s:.3f}s "
              f"completed={phase.log.completed} failed={phase.log.failed} "
              f"checks={phase.checks} cut_violations_end={phase.cut_violations}")
    for name, unit in shown.items():
        print(f"  {name:<30} {_format(metrics[name]):>14} {unit}")
    failures = runner.failed_checks(phases)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for seed in mismatched:
        print(f"CHECK FAILED: seed {seed} did not reproduce its virtual results")
    result = {
        "correct": not failures and not mismatched,
        "attempted": sum(phase.log.attempted for phase in phases),
        "failed": sum(phase.log.failed for phase in phases),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
