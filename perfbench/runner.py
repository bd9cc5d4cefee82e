"""Phases, cycles and the metrics they produce.

A *phase* is one workload object on one sub-seed: set up a fresh cluster,
then drive the timed requests.  A run pools ``sub_seeds`` phases (a
*cycle*).  Untraced runs repeat the cycle until ``--seconds`` have passed:
virtual metrics come from the first cycle (later cycles must reproduce it
exactly), host metrics from the per-sub-seed medians over all cycles, and
``setup_s`` from the median of every set-up (each untraced phase times its
set-up ``setup_repeats`` times, spreading the samples over the run).
Traced runs make one untraced and one traced phase per sub-seed.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs import Tracer

from . import workloads
from .layers import CounterSnapshot, cut_violations, layer_metrics, layer_targets, traced_counts
from .measure import HostProfiler, RequestLog, exact_rps, nearest_rank

#: Declares every published metric with its unit; the single source of names.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_units(section: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics declared."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


@dataclasses.dataclass
class Phase:
    """What one phase leaves behind once its cluster is gone."""

    seed: int
    setup_s: List[float]
    cpu_s: float
    log: RequestLog
    checks: Dict[str, int]
    cut_violations: int
    counts: Optional[Dict[str, float]] = None

    def fingerprint(self) -> Tuple:
        """Every virtual outcome; equal across repeats of the same sub-seed."""
        return (self.log.fingerprint(), tuple(sorted(self.checks.items())),
                self.cut_violations)


def _logged(issue, log: RequestLog):
    """The driver's request function: ``issue`` plus exact timestamps."""

    def request(cloud, ctx, index: int):
        start = ctx.clock.now_ms
        log.issue(start)
        future = issue(cloud, ctx, index)
        if future is None:
            log.complete(start, ctx.clock.now_ms)
            return None

        def done(resolved) -> None:
            if resolved.exception() is None:
                log.complete(start, resolved.result().ctx.clock.now_ms)

        future.add_done_callback(done)
        return future

    return request


def run_phase(name: str, seed: int, traced: bool = False, setups: int = 1,
              **overrides) -> Phase:
    """Set up ``name`` on ``seed`` and drive its timed requests once.

    The set-up is timed ``setups`` times, each on a fresh cluster after a
    full collection; the last one is driven.  A traced phase installs the
    layer wrappers and attaches a :class:`~repro.obs.Tracer` through the
    cluster's ``tracer=`` argument; both are removed before returning.
    """
    profiler = HostProfiler() if traced else None
    tracer = Tracer(sample_rate=1.0) if traced else None
    try:
        if profiler is not None:
            profiler.install(layer_targets())
        setup_s = []
        for _ in range(setups):
            workload = None  # the previous cluster is garbage before the next is built
            gc.collect()
            start = time.perf_counter()
            workload = workloads.make(name, seed, tracer=tracer, **overrides)
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        log = RequestLog()
        driver = workload.driver(_logged(workload.issue, log))
        before = CounterSnapshot.read(workload.cluster) if traced else None
        if traced:
            tracer.clear()
            profiler.reset()
        gc.collect()
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        driver.run()
        cpu_s = time.process_time() - cpu_start
        wall_s = time.perf_counter() - wall_start
        counts = None
        if traced:
            counts = traced_counts(
                profiler, tracer.spans,
                CounterSnapshot.read(workload.cluster).minus(before),
                wall_s=wall_s, completed=log.completed,
                events=driver.engine.events_processed,
                threads=workload.cluster.live_thread_count(), span_ms=log.span_ms())
        checks = dict(workload.checks())
        checks["failed_requests"] = log.failed
        return Phase(seed=seed, setup_s=setup_s, cpu_s=cpu_s, log=log, checks=checks,
                     cut_violations=cut_violations(workload.cluster), counts=counts)
    finally:
        if profiler is not None:
            profiler.uninstall()


def sub_seeds(name: str, seed: int) -> List[int]:
    """The independent input seeds one run pools; disjoint across run seeds."""
    count = workloads.WORKLOADS[name].sub_seeds
    return [seed * count + k for k in range(count)]


def latency_summary(phases: List[Phase]) -> Dict[str, float]:
    samples = sorted(latency for phase in phases for latency in phase.log.latencies_ms)
    p50, _ = nearest_rank(samples, 50.0)
    p99, beyond = nearest_rank(samples, 99.0)
    return {"virtual_p50_ms": p50, "virtual_p99_ms": p99,
            "latency.samples": len(samples), "latency.p99_tail_samples": beyond}


def host_rps(cycles: List[List[Phase]]) -> float:
    """Timed requests per CPU second, from each sub-seed's median CPU time."""
    completed = sum(phase.log.completed for phase in cycles[0])
    cpu_s = sum(statistics.median(cycle[k].cpu_s for cycle in cycles)
                for k in range(len(cycles[0])))
    return completed / cpu_s


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(cycles: List[List[Phase]]) -> Dict[str, float]:
    first = cycles[0]
    attempted = sum(phase.log.attempted for phase in first)
    metrics = {
        "setup_s": statistics.median(setup_s for cycle in cycles for phase in cycle
                                     for setup_s in phase.setup_s),
        "host_rps": host_rps(cycles),
        "peak_rss_mb": peak_rss_mb(),
        "virtual_rps": exact_rps([phase.log for phase in first]),
        "error_rate": sum(phase.log.failed for phase in first) / attempted,
    }
    metrics.update(latency_summary(first))
    return metrics


def per_layer(untraced: List[Phase], traced: List[Phase]) -> Dict[str, float]:
    pooled: Dict[str, float] = {}
    for phase in traced:
        for key, value in phase.counts.items():
            pooled[key] = pooled.get(key, 0) + value
    metrics = layer_metrics(pooled)
    metrics["cache.cut_violations_end"] = sum(phase.cut_violations for phase in traced)
    completed = sum(phase.log.completed for phase in traced)
    traced_rps = completed / sum(phase.cpu_s for phase in traced)
    metrics["trace.overhead_frac"] = host_rps([untraced]) / traced_rps - 1.0
    metrics["trace.timed_wall_s"] = pooled["wall_s"]
    summary = latency_summary(traced)
    metrics["latency.samples"] = summary["latency.samples"]
    metrics["latency.p99_tail_samples"] = summary["latency.p99_tail_samples"]
    return metrics


def failed_checks(phases: List[Phase]) -> List[str]:
    """``seed:check=count`` for every nonzero output-error count."""
    return [f"{phase.seed}:{check}={count}" for phase in phases
            for check, count in phase.checks.items() if count]
