"""Integration tests for the engine-driven storage tier (Figures 5, 6, 7).

The Figure 5/6 harnesses run through engine-attached storage nodes; their
seeded timelines, at one client and at the default client count, are pinned
in ``test_invocation_goldens.py``.
"""

from repro.bench import run_figure5, run_figure6, run_figure7
from repro.cloudburst.monitoring import MonitoringConfig


class TestFigure5EngineDriver:
    def test_engine_driver_is_deterministic(self):
        kwargs = dict(requests_per_size=6, sizes=("800KB",), seed=3, clients=3)
        first = run_figure5(**kwargs)
        second = run_figure5(**kwargs)
        for label in ("Cloudburst (Hot)", "Cloudburst (Cold)"):
            assert first.points["800KB"].recorders[label].samples_ms == \
                second.points["800KB"].recorders[label].samples_ms

    def test_concurrent_clients_still_satisfy_paper_ordering(self):
        sweep = run_figure5(requests_per_size=8, sizes=("8MB",), seed=1, clients=4)
        at_8mb = sweep.points["8MB"]
        assert at_8mb.median("Cloudburst (Hot)") < at_8mb.median("Cloudburst (Cold)")
        assert at_8mb.median("Cloudburst (Cold)") < at_8mb.median("Lambda (Redis)")


class TestFigure6EngineDriver:
    def test_lambda_baselines_identical_across_drivers(self):
        # The simulated Lambda gathers never touch the engine; Cloudburst-side
        # concurrency must not change their numbers at all.
        one_client = run_figure6(repetitions=5, seed=4, clients=1)
        two_clients = run_figure6(repetitions=5, seed=4, clients=2)
        assert one_client.recorders["Cloudburst (gather)"].samples_ms != \
            two_clients.recorders["Cloudburst (gather)"].samples_ms
        for label in ("Lambda+Redis (gather)", "Lambda+Dynamo (gather)",
                      "Lambda+S3 (gather)"):
            assert two_clients.recorders[label].samples_ms == \
                one_client.recorders[label].samples_ms


class TestFigure7StorageTier:
    def test_storage_autoscaler_ticks_on_the_shared_timeline(self):
        experiment = run_figure7(
            initial_threads=6, client_count=12,
            load_duration_s=10.0, total_duration_s=15.0,
            policy_interval_ms=2_500.0,
            monitoring_config=MonitoringConfig(
                vms_per_scale_up=1, node_startup_delay_ms=5_000.0, max_vms=6),
            seed=1)
        scaler = experiment.storage_autoscaler
        assert scaler is not None
        # The policy really evaluated on virtual time while load was running.
        assert len(scaler.history) >= 2
        ticks = [at_ms for at_ms, _count in scaler.node_count_timeline]
        assert ticks == sorted(ticks)
        assert ticks[0] >= 2_500.0
        # The workload's Zipf head is hot enough to earn extra replicas.
        assert any(report.keys_boosted for report in scaler.history)
