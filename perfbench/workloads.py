"""The benchmark's three workloads, built only from the public APIs.

Each workload takes its seed, generates every input from it during set-up
(social graph and request stream, images and arrival choices, DAGs and key
references), and hands the program only those inputs.  A workload object
lives for one phase: :meth:`setup` builds and warms a fresh cluster,
:meth:`issue` is the body of one request, :meth:`driver` drives the timed
phase, and :meth:`checks` counts output errors (every count must be zero).

Why these three (see README.md for the full layer map):

* ``retwis-causal`` — the paper's stateful headline app (Fig. 12 shape):
  lattice merges, causal multi-gets and locality placement over a highly
  shared working set.
* ``prediction-open`` — the Fig. 10 pipeline under open-loop Poisson
  arrivals: placement, executor queueing and the event loop, with one hot
  read-only key, so it bypasses lattices, consistency and Anna.
* ``session-dsc`` — the §6.2 random DAGs under distributed session causal
  consistency: every request writes, sessions span executors and payloads
  are tiny, so causal metadata dominates.
"""

from __future__ import annotations

from typing import Dict, List

from repro.anna import AnnaCluster
from repro.apps.prediction import (
    PIPELINE_DAG,
    deploy_on_cloudburst,
    make_image,
    make_model_weights,
    render_prediction,
    resize_image,
    run_model,
)
from repro.apps.retwis import RetwisOnCloudburst
from repro.bench.harness import EngineLoadDriver, build_cluster_with_threads
from repro.cloudburst import CloudburstCluster, ConsistencyLevel
from repro.sim import RandomSource
from repro.workloads.dags import ConsistencyWorkload
from repro.workloads.social import SocialWorkloadGenerator

DSC = ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL


class RetwisCausal:
    """Closed-loop causal Retwis: 160 clients on 160 executor threads.

    A 90/10 timeline/post mix over a Zipf-1.5 social graph (200 users,
    1,000 seed tweets), with 1,280 sequential warm-up requests replicating
    the hot follower and post lists onto the caches before timing.  Post
    lists grow as the run goes on, so the per-request host cost depends on
    the run length: ``requests`` is fixed, never scaled to the host.
    """

    name = "retwis-causal"
    sub_seeds = 3
    setup_repeats = 2

    def __init__(self, seed: int, tracer=None, requests: int = 2_000,
                 threads: int = 160, users: int = 200, seed_tweets: int = 1_000):
        self.seed = seed
        self.tracer = tracer
        self.requests = requests
        self.threads = threads
        self.users = users
        self.seed_tweets = seed_tweets

    def setup(self) -> None:
        generator = SocialWorkloadGenerator(user_count=self.users,
                                            seed_tweet_count=self.seed_tweets,
                                            seed=self.seed)
        graph = generator.build_graph()
        self.cluster = build_cluster_with_threads(
            self.threads, threads_per_vm=3, seed=self.seed, consistency=DSC,
            tracer=self.tracer)
        self.app = RetwisOnCloudburst(self.cluster)
        self.app.load_graph(graph)
        for request in generator.request_stream(self.threads * 8):
            self.app.execute(request)
        self.stream = generator.request_stream(self.requests)

    def issue(self, cloud, ctx, index: int):
        # Retwis requests are single functions: they complete on ``ctx``.
        self.app.execute(self.stream[index], ctx=ctx)
        return None

    def driver(self, request_fn) -> EngineLoadDriver:
        return EngineLoadDriver(self.cluster, request_fn, clients=self.threads,
                                max_requests=self.requests, record_charges=False,
                                keep_latency_samples=False, label=self.name)

    def checks(self) -> Dict[str, int]:
        return {"anomalous_timelines": self.app.stats.anomalous_timelines}


class PredictionOpen:
    """Open-loop prediction serving: Poisson arrivals on 60 executor threads.

    The three-stage pipeline (resize, model, render) at 150 requests per
    virtual second, below the ~285/s the threads can serve, so the queue
    does not grow.  Each request carries one of ``IMAGES`` seeded images;
    every response is compared with the pipeline computed directly.
    """

    name = "prediction-open"
    sub_seeds = 2
    setup_repeats = 3
    RATE_PER_S = 150.0
    IMAGES = 4

    def __init__(self, seed: int, tracer=None, requests: int = 1_500,
                 threads: int = 60, image_side: int = 512):
        self.seed = seed
        self.tracer = tracer
        self.requests = requests
        self.threads = threads
        self.image_side = image_side
        self.wrong_responses = 0

    def setup(self) -> None:
        self.cluster = build_cluster_with_threads(self.threads, threads_per_vm=3,
                                                  seed=self.seed, tracer=self.tracer)
        weights = make_model_weights(seed=self.seed)
        self.deployment = deploy_on_cloudburst(self.cluster, weights)
        self.images = [make_image(side=self.image_side, seed=self.seed * self.IMAGES + i)
                       for i in range(self.IMAGES)]
        self.expected = [render_prediction(run_model(resize_image(image), weights))
                         for image in self.images]
        rng = RandomSource(self.seed).spawn("prediction-inputs")
        self.choices = [rng.randint(0, self.IMAGES - 1) for _ in range(self.requests)]
        # Warm the model weights into the executor caches (one serve per thread).
        for index in range(self.threads):
            self.deployment.serve(self.images[index % self.IMAGES])

    def issue(self, cloud, ctx, index: int):
        choice = self.choices[index]
        future = cloud.call_dag(PIPELINE_DAG, {"cb_resize": [self.images[choice]]}, ctx=ctx)

        def verify(resolved) -> None:
            if resolved.exception() is None and resolved.result().value != self.expected[choice]:
                self.wrong_responses += 1

        future.add_done_callback(verify)
        return future

    def driver(self, request_fn) -> EngineLoadDriver:
        # Generous horizon: whatever is still queued ten times past the
        # expected end counts as failed instead of hanging the run.
        horizon_ms = 10 * 1000.0 * self.requests / self.RATE_PER_S
        return EngineLoadDriver(self.cluster, request_fn, mode="open",
                                arrival_rate_per_s=self.RATE_PER_S,
                                max_requests=self.requests, max_duration_ms=horizon_ms,
                                record_charges=False, keep_latency_samples=False,
                                label=self.name)

    def checks(self) -> Dict[str, int]:
        return {"wrong_responses": self.wrong_responses}


class SessionDsc:
    """Closed-loop §6.2 random DAGs under distributed session causal consistency.

    250 linear DAGs of 2-5 string functions over Zipf-1.0 references into a
    1M-key space (the first 2,000 keys populated), each ending in a sink
    write to a key it read.  8 clients on 5 VMs, Anna propagating every
    50 virtual ms.
    """

    name = "session-dsc"
    sub_seeds = 2
    setup_repeats = 4
    CLIENTS = 8
    VMS = 5
    PROPAGATION_MS = 50.0

    def __init__(self, seed: int, tracer=None, requests: int = 2_000,
                 dag_count: int = 250, populated_keys: int = 2_000):
        self.seed = seed
        self.tracer = tracer
        self.requests = requests
        self.dag_count = dag_count
        self.populated_keys = populated_keys

    def setup(self) -> None:
        self.cluster = CloudburstCluster(
            executor_vms=self.VMS, consistency=DSC, seed=self.seed,
            anna_propagation=AnnaCluster.PROPAGATE_PERIODIC,
            propagation_interval_ms=self.PROPAGATION_MS, tracer=self.tracer)
        client = self.cluster.connect(consistency=DSC)
        workload = ConsistencyWorkload(dag_count=self.dag_count, seed=self.seed)
        workload.populate(client, populated_keys=self.populated_keys)
        dags = workload.generate_dags(client)
        rng = RandomSource(self.seed).spawn("dag-choice")
        self.inputs: List = []
        for _ in range(self.requests):
            dag = rng.choice(dags)
            function_args, _sink_key = workload.sample_request(dag)
            self.inputs.append((dag.name, function_args))

    def issue(self, cloud, ctx, index: int):
        dag_name, function_args = self.inputs[index]
        return cloud.call_dag(dag_name, function_args, consistency=DSC, ctx=ctx)

    def driver(self, request_fn) -> EngineLoadDriver:
        return EngineLoadDriver(self.cluster, request_fn, clients=self.CLIENTS,
                                max_requests=self.requests, record_charges=False,
                                keep_latency_samples=False, label=self.name)

    def checks(self) -> Dict[str, int]:
        return {"causal_deps_unresolved": sum(vm.cache.stats.causal_deps_unresolved
                                              for vm in self.cluster.vms)}


#: Workload name -> class.  ``sub_seeds`` is how many independent inputs one
#: run pools, which averages out input-to-input variation within a run;
#: ``setup_repeats`` is how many set-ups an untraced phase times, so that
#: ``setup_s`` is a median of many samples even where a run has few phases.
WORKLOADS = {cls.name: cls for cls in (RetwisCausal, PredictionOpen, SessionDsc)}


def make(name: str, seed: int, tracer=None, **overrides):
    """A fresh workload object; ``overrides`` shrink it for tests."""
    return WORKLOADS[name](seed, tracer=tracer, **overrides)
