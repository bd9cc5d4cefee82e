"""Golden seeded timelines for every invocation path.

Each scenario runs a fixed, seeded workload and hashes the exact list of
per-request virtual latencies (``repr`` of each float, so a drift in the
last bit changes the hash).  The constants pin the timelines of:

* sequential ``call`` — Fig 1's "CB (Single)", which calls ``square`` while
  the ``composition`` DAG pins it (single calls place over every thread);
* sequential chain ``call_dag`` — the Fig 1 composition and the Fig 10
  prediction pipeline;
* a §4.5 retry on each of those (an executor failure mid-invocation);
* engine-backed ``call`` and ``call_dag`` under ``EngineLoadDriver``.

Refactors of the invocation machinery must leave every hash unchanged.
"""

import hashlib

import pytest

from repro import CloudburstCluster
from repro.apps.prediction import deploy_on_cloudburst, make_image
from repro.bench.harness import run_engine_closed_loop
from repro.errors import ExecutorFailedError
from repro.sim import ComputeModel, Engine, LatencyModel, RequestContext


def _digest(latencies):
    text = ",".join(repr(float(latency)) for latency in latencies)
    return hashlib.sha256(text.encode()).hexdigest()


def _increment(x):
    return x + 1


def _composition_cluster(flaky_every=0):
    """Fig 1's deployment; ``flaky_every`` > 0 fails every n-th ``square``."""
    cluster = CloudburstCluster(executor_vms=3, threads_per_vm=2, seed=3)
    cloud = cluster.connect()
    cloud.register(_increment, name="increment")
    invocations = {"square": 0}

    def square(cloudburst, x):
        invocations["square"] += 1
        if flaky_every and invocations["square"] % flaky_every == 0:
            raise ExecutorFailedError(cloudburst.get_id(), "chaos")
        return x * x

    cloud.register(square, name="square")
    cloud.register_dag("composition", ["increment", "square"],
                       [("increment", "square")])
    return cluster, cloud


def _sequential(issue, requests=40):
    latencies = []
    retries = 0
    for index in range(requests):
        result = issue(index, RequestContext()).result()
        latencies.append(result.latency_ms)
        retries += result.retries
    return latencies, retries


def sequential_call(flaky_every=0):
    _, cloud = _composition_cluster(flaky_every)
    return _sequential(lambda i, ctx: cloud.call(
        "square", [i], store_in_kvs=True, ctx=ctx))


def sequential_composition(flaky_every=0):
    _, cloud = _composition_cluster(flaky_every)
    return _sequential(lambda i, ctx: cloud.call_dag(
        "composition", {"increment": [i]}, store_in_kvs=True, ctx=ctx))


def sequential_prediction(flaky_every=0):
    cluster = CloudburstCluster(executor_vms=3, threads_per_vm=2, seed=5)
    deployment = deploy_on_cloudburst(cluster)
    if flaky_every:
        # Wrap the model stage so every n-th invocation loses its executor.
        scheduler = cluster.schedulers[0]
        original = scheduler.functions["cb_model"]
        invocations = {"count": 0}

        def flaky_model(cloudburst, resized):
            invocations["count"] += 1
            if invocations["count"] % flaky_every == 0:
                raise ExecutorFailedError(cloudburst.get_id(), "chaos")
            return original(cloudburst, resized)

        flaky_model._cloudburst_compute_ms = original._cloudburst_compute_ms
        deployment.client.register(flaky_model, name="cb_model")
    images = [make_image(side=32, seed=seed) for seed in range(4)]
    return _sequential(lambda i, ctx: deployment.serve_future(
        images[i % len(images)], ctx=ctx), requests=12)


def engine_call():
    cluster, _ = _composition_cluster()
    sim = run_engine_closed_loop(
        cluster, lambda cloud, ctx, i: cloud.call("square", [i], ctx=ctx),
        clients=6, total_requests=60)
    return sim.latencies.samples_ms, 0


def engine_composition():
    cluster, _ = _composition_cluster()
    sim = run_engine_closed_loop(
        cluster, lambda cloud, ctx, i: cloud.call_dag(
            "composition", {"increment": [i]}, ctx=ctx),
        clients=6, total_requests=60)
    return sim.latencies.samples_ms, 0


#: scenario -> (runner, sha256 of the latency list, total §4.5 retries).
GOLDENS = {
    "sequential_call": (
        sequential_call,
        "4daddc1a4a4a756cccd234ffcc84fc8f4ee48bc21449f9b0a0436e2e84b5d952", 0),
    "sequential_call_retry": (
        lambda: sequential_call(flaky_every=7),
        "bc28a5b3cf76cbcb5bf9aaf08b182110e52b62cb898e356d2dcf27ef09a291b1", 6),
    "sequential_composition": (
        sequential_composition,
        "199cc8f1a7c2d5308e1b4a2e7a7ef52a27874d7d5f43258eb844ddd15708bc6a", 0),
    "sequential_composition_retry": (
        lambda: sequential_composition(flaky_every=7),
        "f7cf0cf399b905febc0da4924c83fe8f6af45661ca70f43a9ded278d1ad8f33f", 6),
    "sequential_prediction": (
        sequential_prediction,
        "c195d1346d46884147c2bd3e7cd621aa2ae062017be7a77420c3d1c814e0af47", 0),
    "sequential_prediction_retry": (
        lambda: sequential_prediction(flaky_every=5),
        "69b539cd62ce6cb2315ffd1776e49321140f97febaf8e62cd214ad166d8a4a50", 2),
    "engine_call": (
        engine_call,
        "2c33c5beba008422e526cc6d8824ba98fe4dc9d3bc90c6a9c9199adf56efb780", 0),
    "engine_composition": (
        engine_composition,
        "627825cd89c04dad1a3f33a06a405e0b2f640de9a9b18dfc90fe05ad2d6df8c4", 0),
}


@pytest.mark.parametrize("scenario", sorted(GOLDENS))
def test_seeded_timeline_matches_golden(scenario):
    runner, expected_digest, expected_retries = GOLDENS[scenario]
    latencies, retries = runner()
    assert retries == expected_retries
    assert _digest(latencies) == expected_digest




def _diamond_order(on_engine):
    """Stage order of ``a→b→c→f, a→d→e→f`` with jitter off (ties by issue order)."""
    cluster = CloudburstCluster(
        executor_vms=2, threads_per_vm=2, seed=1,
        latency_model=LatencyModel(jitter_enabled=False),
        compute_model=ComputeModel(jitter_sigma=0.0))
    cloud = cluster.connect()
    order = []

    def stage(name):
        def body(*upstream):
            order.append(name)
            return name
        return body

    for name in "abcdef":
        cloud.register(stage(name), name=name)
    cloud.register_dag("diamond", list("abcdef"),
                       [("a", "b"), ("b", "c"), ("c", "f"),
                        ("a", "d"), ("d", "e"), ("e", "f")])
    if on_engine:
        cluster.attach_engine(Engine())
    try:
        assert cloud.call_dag("diamond").get() == "f"
    finally:
        cluster.detach_engine()
    return order


def test_inline_dag_runs_functions_in_ready_time_order():
    """b and d become ready together, so the second stage of each branch runs
    before either branch's third stage, inline exactly as on an engine."""
    assert _diamond_order(on_engine=False) == ["a", "b", "d", "c", "e", "f"]
    assert _diamond_order(on_engine=True) == ["a", "b", "d", "c", "e", "f"]
