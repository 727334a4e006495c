"""Extension experiments E8, E15 and the YCSB baseline: shapes hold."""

from repro.core.experiments_ext import (
    EXTENSION_EXPERIMENTS,
    experiment_e8_sessions,
    experiment_ycsb,
)


class TestE8:
    def test_freshness_monotone_in_quorum_size(self):
        table = experiment_e8_sessions(lags=[4])
        row = table.to_records()[0]
        assert row["R=1_fresh"] <= row["R=majority_fresh"] + 0.05
        assert row["R=majority_fresh"] <= row["R=N_fresh"] + 0.05

    def test_fallback_decays_with_think_time(self):
        table = experiment_e8_sessions(lags=[8])
        row = table.to_records()[0]
        assert row["fallback@1_tick"] >= row["fallback@lag"] >= row["fallback@2xlag"]
        assert row["fallback@2xlag"] == 0.0


class TestYcsbExperiment:
    def test_all_six_workloads(self):
        table = experiment_ycsb(record_count=150, operations=60)
        assert [r["workload"] for r in table.to_records()] == list("ABCDEF")
        assert all(r["unified"] > 0 for r in table.to_records())
        assert all(r["polyglot"] > 0 for r in table.to_records())


class TestE15:
    def test_observability_table_shape_and_gates(self):
        from repro.core.experiments_ext import experiment_e15_observability

        table = experiment_e15_observability(scale_factor=0.01, repetitions=2)
        by_mode = {r["mode"]: r for r in table.to_records()}
        assert sorted(by_mode) == ["disabled", "metrics", "tracing"]
        assert by_mode["disabled"]["overhead_x"] == 1
        # Wall-clock ratios are gated at benchmark scale (the CI smoke in
        # benchmarks/bench_e15_observability.py); here the experiment's
        # internal correctness + span-shape checks (result parity across
        # modes, per-shard subspans present) already ran before timing.
        assert all(r["q7_ms"] > 0 for r in table.to_records())


class TestRegistry:
    def test_extension_registry(self):
        assert set(EXTENSION_EXPERIMENTS) == {"E8", "E15", "E16", "YCSB"}
