"""Which entry points belong to which layer, and the per-layer metrics of a traced run.

The layers are the repository's packages and modules:

========== ==========================================================
client     ``repro.cloudburst.client.CloudburstClient``
scheduler  ``repro.cloudburst.scheduler`` / ``sessions`` / ``policy``
executor   ``repro.cloudburst.executor.ExecutorThread`` / ``ExecutorVM``
                (user-function bodies run inside ``execute``)
consistency ``repro.cloudburst.consistency.protocols``
cache      ``repro.cloudburst.cache.ExecutorCache``
anna       ``repro.anna.cluster.AnnaCluster``
lattices   ``repro.lattices``
sim        everything no wrapper covers: the event loop, the load driver
           and the benchmark's own request code
========== ==========================================================

Helpers a layer calls without a wrapper of their own (the key-to-cache
index lookups of locality placement, work-queue reads) count as that
layer's self time.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from .measure import HostProfiler, request_spans, virtual_self_ms

LAYERS = ("client", "scheduler", "executor", "consistency", "cache", "anna", "lattices")

_MERGE_SUFFIXES = (".merge",)
_SIZE_SUFFIXES = (".size_bytes", ".metadata_bytes", ".estimate_size")
_READ_SUFFIXES = ("Protocol.read", "Protocol.read_many")
_PLACE_SUFFIXES = ("PlacementPolicy.pick",)


def family_targets(layer: str, owners: Sequence[object],
                   *attributes: str) -> List[Tuple[str, object, str]]:
    """``(layer, owner, attribute)`` for a family of classes (or modules).

    An attribute is wrapped on every owner that defines it itself, so an
    override and the method it overrides are both covered.  Each attribute
    must be defined by at least one owner: a renamed or removed entry point
    raises instead of silently losing its layer's wrapper.
    """
    targets = []
    for attribute in attributes:
        found = [owner for owner in owners if attribute in vars(owner)]
        if not found:
            names = ", ".join(getattr(owner, "__name__", str(owner)) for owner in owners)
            raise AttributeError(f"none of {names} defines {attribute!r}")
        targets.extend((layer, owner, attribute) for owner in found)
    return targets


def layer_targets() -> List[Tuple[str, object, str]]:
    """``(layer, owner, attribute)`` for every wrapped entry point.

    Single owners must define every listed attribute themselves;
    :meth:`HostProfiler.install` raises if one does not.
    """
    from repro.anna.cluster import AnnaCluster
    from repro.cloudburst import policy
    from repro.cloudburst.cache import ExecutorCache
    from repro.cloudburst.client import CloudburstClient
    from repro.cloudburst.consistency import protocols
    from repro.cloudburst.executor import ExecutorThread, ExecutorVM
    from repro.cloudburst.scheduler import Scheduler
    from repro.cloudburst.sessions import DagSession
    from repro.lattices import base, causal, counters, lww, sets, vector_clock

    targets: List[Tuple[str, object, str]] = []

    def add(layer: str, owner: object, *attributes: str) -> None:
        targets.extend((layer, owner, attribute) for attribute in attributes)

    add("client", CloudburstClient, "put", "get", "delete", "call", "call_dag",
        "register", "register_dag")
    add("scheduler", Scheduler, "call", "call_dag", "register_function", "register_dag")
    # DAG stages run as engine events that enter the scheduler here.
    add("scheduler", DagSession, "start", "_run_function")
    targets += family_targets("scheduler", (policy.LocalityPlacementPolicy,
                                            policy.RandomPlacementPolicy), "pick")
    add("executor", ExecutorThread, "execute")
    add("executor", ExecutorVM, "publish_metrics")
    targets += family_targets(
        "consistency",
        (protocols.ConsistencyProtocol, protocols.LWWProtocol,
         protocols.RepeatableReadProtocol, protocols.SingleKeyCausalProtocol,
         protocols.MultiKeyCausalProtocol, protocols.DistributedSessionCausalProtocol,
         protocols.ObservingProtocol),
        "read", "read_many", "write", "finalize")
    add("cache", ExecutorCache, "get", "get_or_fetch", "multi_get", "put",
        "receive_update", "prefetch", "fetch_from_upstream", "ensure_causal_cut",
        "create_snapshot", "evict_snapshots", "get_metadata", "publish_cached_keys")
    add("anna", AnnaCluster, "get", "put", "multi_get", "delete", "put_plain",
        "get_plain", "flush_updates", "run_gossip_round", "ingest_cached_keys")
    targets += family_targets(
        "lattices",
        (base.Lattice, causal.CausalLattice, lww.LWWLattice, vector_clock.VectorClock,
         sets.SetLattice, sets.MapLattice, sets.OrderedSetLattice,
         counters.MaxIntLattice, counters.MinIntLattice, counters.BoolOrLattice),
        "merge", "size_bytes", "metadata_bytes")
    add("lattices", causal.CausalLattice, "__init__", "with_dependency")
    add("lattices", vector_clock.VectorClock, "dominates", "dominates_or_equal",
        "concurrent_with", "increment")
    # estimate_size is a module function re-imported by name; patch every
    # module that holds it (the recursion inside base resolves base's name).
    targets += family_targets("lattices", (base, causal, lww, sets), "estimate_size")
    return targets


@dataclasses.dataclass
class CounterSnapshot:
    """Cumulative cluster counters, read before and after the timed phase."""

    cache: Dict[str, float]
    locality_hits: int
    locality_misses: int
    queue_busy_ms: float
    rejections: int
    gossip_rounds: int

    @classmethod
    def read(cls, cluster) -> "CounterSnapshot":
        cache: Dict[str, float] = {}
        for vm in cluster.vms:
            for name, value in dataclasses.asdict(vm.cache.stats).items():
                cache[name] = cache.get(name, 0) + value
        kvs = cluster.kvs
        return cls(cache=cache,
                   locality_hits=sum(s.stats.locality_hits for s in cluster.schedulers),
                   locality_misses=sum(s.stats.locality_misses for s in cluster.schedulers),
                   queue_busy_ms=kvs.total_queue_busy_ms(),
                   rejections=kvs.total_rejections(),
                   gossip_rounds=kvs.gossip_rounds)

    def minus(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        return CounterSnapshot(
            cache={name: value - earlier.cache.get(name, 0)
                   for name, value in self.cache.items()},
            locality_hits=self.locality_hits - earlier.locality_hits,
            locality_misses=self.locality_misses - earlier.locality_misses,
            queue_busy_ms=self.queue_busy_ms - earlier.queue_busy_ms,
            rejections=self.rejections - earlier.rejections,
            gossip_rounds=self.gossip_rounds - earlier.gossip_rounds)


def cut_violations(cluster) -> int:
    """(key, missing-dependency) pairs summed over every executor cache."""
    return sum(len(vm.cache.violates_causal_cut()) for vm in cluster.vms)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_counts(profiler: HostProfiler, spans, counters: CounterSnapshot,
                  wall_s: float, completed: int, events: int, threads: int,
                  span_ms: float) -> Dict[str, float]:
    """Additive per-layer quantities of one traced timed phase.

    Everything here is a sum, so phases of several sub-seeds pool by adding;
    :func:`layer_metrics` turns the pooled sums into the published ratios.
    """
    spans = request_spans(spans)
    self_ms = virtual_self_ms(spans)
    invokes = [span for span in spans if span.name.startswith("invoke:")]
    cache = counters.cache
    counts: Dict[str, float] = {
        "wall_s": wall_s,
        "completed": completed,
        "events": events,
        "thread_ms": threads * span_ms,
        "lattices.merges": profiler.calls_matching(_MERGE_SUFFIXES),
        "lattices.size_calls": profiler.calls_matching(_SIZE_SUFFIXES),
        "consistency.reads": profiler.calls_matching(_READ_SUFFIXES),
        "scheduler.place_host_s": sum(
            ns for label, ns in profiler.inclusive_ns.items()
            if label.endswith(_PLACE_SUFFIXES)) / 1e9,
        "anna.gets": profiler.calls.get("AnnaCluster.get", 0),
        "anna.puts": profiler.calls.get("AnnaCluster.put", 0),
        "executor.invocations": len(invokes),
        "invoke_ms": sum(span.duration_ms for span in invokes),
        "executor_queue_ms": sum(span.duration_ms for span in spans
                                 if span.name == "executor_queue"),
        "kvs_queue_ms": sum(span.duration_ms for span in spans
                            if span.name == "kvs_queue"),
        "cache_self_ms": self_ms.get("cache", 0.0),
        "scheduler_self_ms": self_ms.get("scheduler", 0.0),
        "scheduler.retries": sum(1 for span in spans for relation, _ in (span.links or ())
                                 if relation == "retry_of"),
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.upstream_fetches": cache["upstream_fetches"],
        "cache.causal_dep_fetches": cache["causal_dep_fetches"],
        "cache.prefetches_issued": cache["prefetches_issued"],
        "prefetch_hits": cache["prefetch_hits"],
        "locality_hits": counters.locality_hits,
        "locality_misses": counters.locality_misses,
        "anna.queue_busy_ms": counters.queue_busy_ms,
        "anna.rejections": counters.rejections,
        "anna.gossip_rounds": counters.gossip_rounds,
    }
    for layer in LAYERS:
        counts[f"{layer}.host_self_s"] = profiler.self_s(layer)
    return counts


def layer_metrics(counts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer ratios from pooled :func:`traced_counts` sums.

    The result also keeps every pooled sum; ``run.py`` publishes the names
    ``BENCHMARK.json`` declares.
    """
    completed = counts["completed"]
    invocations = counts["executor.invocations"]
    metrics = dict(counts)
    metrics["sim.host_self_s"] = counts["wall_s"] - sum(
        counts[f"{layer}.host_self_s"] for layer in LAYERS)
    metrics["sim.events_per_request"] = _ratio(counts["events"], completed)
    metrics["executor.utilization"] = _ratio(counts["invoke_ms"], counts["thread_ms"])
    metrics["executor.virtual_queue_ms"] = _ratio(counts["executor_queue_ms"], invocations)
    metrics["cache.hit_ratio"] = _ratio(counts["cache.hits"],
                                        counts["cache.hits"] + counts["cache.misses"])
    metrics["cache.prefetch_useful_ratio"] = _ratio(counts["prefetch_hits"],
                                                    counts["cache.prefetches_issued"])
    metrics["cache.virtual_self_ms"] = _ratio(counts["cache_self_ms"], completed)
    metrics["scheduler.locality_hit_ratio"] = _ratio(
        counts["locality_hits"], counts["locality_hits"] + counts["locality_misses"])
    metrics["scheduler.virtual_self_ms"] = _ratio(counts["scheduler_self_ms"], completed)
    metrics["anna.virtual_queue_ms"] = _ratio(counts["kvs_queue_ms"], completed)
    return metrics
