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

The figure goldens below them hash every figure driver's seeded output at a
small budget: Fig 1; Figures 5 and 6 at one client and at their default
client count; Fig 7's latencies and capacity timeline; Fig 8's per-level
latency lists; Figs 9-12; the one-client §6.2 runs under LWW, DSRR and DSC;
and Table 2's anomaly row.

Refactors of the invocation machinery or of a figure driver must leave every
hash unchanged.
"""

import hashlib

import pytest

from repro import CloudburstCluster
from repro.apps.prediction import deploy_on_cloudburst, make_image
from repro.bench import (
    run_figure1,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
    run_table2,
)
from repro.bench.consistency_bench import _run_level
from repro.bench.harness import run_engine_closed_loop
from repro.cloudburst import ConsistencyLevel
from repro.cloudburst.monitoring import MonitoringConfig
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


# --------------------------------------------------------------------------------------
# Figure drivers
# --------------------------------------------------------------------------------------
def _series_digest(series):
    """Hash ``(label, values)`` pairs in order, each value by ``repr(float)``."""
    text = ";".join(f"{label}=" + ",".join(repr(float(value)) for value in values)
                    for label, values in series)
    return hashlib.sha256(text.encode()).hexdigest()


def _recorders(comparison):
    return [(label, recorder.samples_ms)
            for label, recorder in comparison.recorders.items()]


def _scaling_points(scaling):
    return [(f"{point.threads}t/{point.clients}c",
             [point.throughput_per_s, point.median_ms, point.p95_ms, point.p99_ms])
            for point in scaling.points]


def figure1():
    return _recorders(run_figure1(requests=20, seed=1))


def figure5(**kwargs):
    sweep = run_figure5(requests_per_size=6, sizes=("800KB",), seed=2, **kwargs)
    return [(f"{size}/{label}", values)
            for size, point in sweep.points.items()
            for label, values in _recorders(point)]


def figure6(**kwargs):
    return _recorders(run_figure6(repetitions=6, seed=2, **kwargs))


def figure7():
    experiment = run_figure7(
        initial_threads=6, client_count=12,
        load_duration_s=10.0, total_duration_s=15.0,
        policy_interval_ms=2_500.0,
        monitoring_config=MonitoringConfig(
            vms_per_scale_up=1, node_startup_delay_ms=5_000.0, max_vms=6),
        seed=1)
    timeline = experiment.simulation.capacity_timeline
    return [("latencies", experiment.simulation.latencies.samples_ms),
            ("capacity_at_ms", [at_ms for at_ms, _threads in timeline]),
            ("capacity_threads", [threads for _at_ms, threads in timeline])]


def figure8():
    result = run_figure8(requests_per_level=30, dag_count=8, populated_keys=100,
                         executor_vms=3, seed=4)
    return _recorders(result.comparison)


def figure9():
    return _recorders(run_figure9(requests=8, seed=1, image_side=64))


def figure10():
    return _scaling_points(run_figure10(thread_counts=(6, 12), requests_per_point=60,
                                        seed=1, image_side=32))


def figure11():
    experiment = run_figure11(requests=60, user_count=60, seed_tweets=200,
                              executor_vms=3, flush_every=20, seed=1)
    return _recorders(experiment.comparison) + [
        ("anomaly_rates",
         [experiment.anomaly_rate_lww, experiment.anomaly_rate_causal])]


def figure12():
    return _scaling_points(run_figure12(thread_counts=(6, 12), requests_per_point=100,
                                        seed=1, user_count=60, seed_tweets=200))


def single_client_level(level):
    """One §6.2 client with immediate propagation: no interleaving, no staleness."""
    outcome = _run_level(level, dag_count=8, requests=40, populated_keys=100,
                         executor_vms=3, seed=4, clients=1,
                         propagation_interval_ms=0.0)
    return [(level.short_name, outcome["recorder"].samples_ms)]


#: scenario -> (runner returning ``(label, values)`` pairs, sha256 of them).
FIGURE_GOLDENS = {
    "figure1": (
        figure1,
        "ca8ab1935cc97bfdf753653b1248e6ff62dececf61792e275210fc3af1c1bba0"),
    "figure5_one_client": (
        lambda: figure5(clients=1),
        "854d95192a58a0debad2bf99883611a4c91dde1ecffae207fad105b028c89277"),
    "figure5": (
        figure5,
        "8d55b88cc75695596ca9f735a53c9edb3155cbdfaada8852f97405475eb73a58"),
    "figure6_one_client": (
        lambda: figure6(clients=1),
        "ad13919256f457dfd178e352aa88951addaad99363a627680e41d7387ec6d9b5"),
    "figure6": (
        figure6,
        "8c149c49f36d492c46d3312ff476cc16095848881448015d764e351ad5615b36"),
    "figure7": (
        figure7,
        "a59fc52f1ffc5fa85dfd36e55643d46ae5f3b602429f3d6a89616a8ec0c24bd8"),
    "figure8": (
        figure8,
        "86c8ea6f801a2376d12d7da270c546104db7d07f288cde187f2e4cde17a08fe9"),
    "figure9": (
        figure9,
        "1bd384854fa927671dd7d3e1be3df58a0c2031c427023c06bcd0d61ceb8abb82"),
    "figure10": (
        figure10,
        "5d08b8471a961499e66041638d05e86d28a21c558cb80f6b16c5d8f788c84955"),
    "figure11": (
        figure11,
        "59b49f6f19dd8ad8e7d8765f6b981008f9815acf421d76918d8e7d37820be50c"),
    "figure12": (
        figure12,
        "35fe663dc6163d0a2796a07a7d249b427d8f6f0664b939b858672575364c5ad1"),
    "level_lww_one_client": (
        lambda: single_client_level(ConsistencyLevel.LWW),
        "922387dc70dfbe0a4621e0b6512a0c8ff6f9e57adc24a0170e1f769e7338e73e"),
    "level_dsrr_one_client": (
        lambda: single_client_level(
            ConsistencyLevel.DISTRIBUTED_SESSION_RR),
        "51da76dc7545f086e43a9dad7a0f7368c07d6e02c4d49b4b95112d96b2c126ab"),
    "level_dsc_one_client": (
        lambda: single_client_level(
            ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL),
        "9b9203a1ea4a975d0e5b1ba9226421c59a7e1771179a285ed3454a0c3a7a723b"),
}


@pytest.mark.parametrize("scenario", sorted(FIGURE_GOLDENS))
def test_figure_matches_golden(scenario):
    runner, expected_digest = FIGURE_GOLDENS[scenario]
    assert _series_digest(runner()) == expected_digest


def test_table2_anomaly_row_matches_golden():
    report = run_table2(executions=200, dag_count=20, populated_keys=150,
                        executor_vms=3, seed=11)
    assert report.executions == 200
    assert report.as_row() == {"LWW": 0, "SK": 156, "MK": 157, "DSC": 158,
                               "DSRR": 8}
