"""Experiment harness: every table regenerates and its *shape* holds.

These are the claims EXPERIMENTS.md records: who wins, what direction a
curve bends — not absolute numbers.
"""

import pytest

from repro.core.config import BenchmarkConfig
from repro.core.experiments import (
    ALL_EXPERIMENTS,
    experiment_e1_queries,
    experiment_e2_evolution,
    experiment_e3_anomalies,
    experiment_e3_throughput,
    experiment_e4_consistency,
    experiment_e5_conversion,
    experiment_e6_atomicity,
    experiment_f1_datagen,
    experiment_f1_graph_shape,
)
from repro.datagen.config import GeneratorConfig

TINY = BenchmarkConfig(
    generator=GeneratorConfig(seed=42, scale_factor=0.03),
    repetitions=1,
    warmup_repetitions=0,
    transaction_count=12,
)


class TestF1:
    def test_counts_scale_linearly(self):
        table = experiment_f1_datagen(scale_factors=[0.1, 0.2])
        records = table.to_records()
        small = {r["container"]: r["entities"] for r in records if r["scale_factor"] == 0.1}
        large = {r["container"]: r["entities"] for r in records if r["scale_factor"] == 0.2}
        assert large["customers"] == 2 * small["customers"]
        assert large["orders"] == 2 * small["orders"]

    def test_integrity_holds_at_all_scales(self):
        table = experiment_f1_datagen(scale_factors=[0.05])
        assert all(r["integrity_ok"] for r in table.to_records())

    def test_all_five_models_present(self):
        table = experiment_f1_datagen(scale_factors=[0.05])
        models = {r["model"] for r in table.to_records()}
        assert models == {"relational", "json", "xml", "key-value", "graph"}

    def test_graph_shape_connected_and_skewed(self):
        table = experiment_f1_graph_shape(scale_factor=0.1)
        metrics = {r["metric"]: r["value"] for r in table.to_records()}
        # preferential attachment: one dominant component, skewed degrees
        assert metrics["largest_component"] >= metrics["vertices"] * 0.9
        assert metrics["max_degree"] > 4 * metrics["median_degree"]


class TestE1:
    def test_shape(self):
        table = experiment_e1_queries(TINY)
        records = table.to_records()
        assert len(records) == 10
        assert all(r["rows"] > 0 for r in records)

    def test_indexes_help_the_join_queries(self):
        # Warm, repeated and at SF >= 0.1: a ratio of two cold single runs
        # on 90 orders says nothing about either access path.
        def e1(scale_factor):
            table = experiment_e1_queries(BenchmarkConfig(
                generator=GeneratorConfig(seed=42, scale_factor=scale_factor),
                repetitions=3, transaction_count=12,
            ))
            return {r["query"]: r for r in table.to_records()}

        # Where the probe is selective (one order by _id) the index
        # must still win clearly.  Measured at SF 0.3: a scan borrows
        # its rows, so the 900 orders of SF 0.1 scan in 0.3 ms and the
        # probe's win over them (2-2.5x on Q10) is inside the noise.
        by_id = e1(0.3)
        for qid in ("Q1", "Q10"):
            assert by_id[qid]["unified"] * 2 < by_id[qid]["unified_noidx"]
        # The joins no longer need it to stay cheap: without an index
        # Q2/Q4 hash orders once instead of scanning them per customer,
        # and Q7 never had one.
        by_id = e1(0.1)
        for qid in ("Q2", "Q4", "Q7"):
            assert by_id[qid]["unified_noidx"] < by_id[qid]["unified"] * 5


class TestE2:
    def test_additive_never_breaks(self):
        table = experiment_e2_evolution(chain_lengths=[1, 4], trials=3)
        for r in table.to_records():
            if r["mode"] == "additive":
                assert r["usability"] == 1.0

    def test_mixed_degrades(self):
        table = experiment_e2_evolution(chain_lengths=[1, 8], trials=3)
        mixed = {r["chain_length"]: r["usability"] for r in table.to_records()
                 if r["mode"] == "mixed"}
        assert mixed[8] < 1.0
        assert mixed[8] <= mixed[1]

    def test_migration_cost_grows_with_chain(self):
        table = experiment_e2_evolution(chain_lengths=[1, 16], trials=2)
        mixed = {r["chain_length"]: r["migrate_ms_per_kdoc"]
                 for r in table.to_records() if r["mode"] == "mixed"}
        assert mixed[16] > mixed[1]


class TestE3:
    def test_anomaly_table_shape(self):
        table = experiment_e3_anomalies()
        records = table.to_records()
        assert len(records) == 5
        ser = [r["serializable"] for r in records]
        assert all(v == "no" for v in ser)
        ru = [r["read_uncommitted"] for r in records]
        assert all(v == "yes" for v in ru)

    def test_snapshot_admits_only_write_skew(self):
        table = experiment_e3_anomalies()
        snapshot = {r["anomaly"]: r["snapshot"] for r in table.to_records()}
        assert snapshot.pop("write_skew") == "yes"
        assert all(v == "no" for v in snapshot.values())

    def test_throughput_table(self):
        table = experiment_e3_throughput(TINY)
        records = table.to_records()
        assert len(records) == 4
        assert all(r["committed"] > 0 for r in records)
        assert all(r["txn_per_sec"] > 0 for r in records)


class TestE4:
    def test_staleness_grows_with_lag(self):
        table = experiment_e4_consistency(lags=[1, 32], loss_probabilities=[0.0])
        records = table.to_records()
        by_lag = {r["base_lag"]: r for r in records}
        assert by_lag[32]["fresh_reads"] < by_lag[1]["fresh_reads"]
        assert by_lag[32]["p95_staleness_ticks"] > by_lag[1]["p95_staleness_ticks"]

    def test_t99_grows_with_lag(self):
        table = experiment_e4_consistency(lags=[1, 16], loss_probabilities=[0.0])
        by_lag = {r["base_lag"]: r for r in table.to_records()}
        assert by_lag[16]["t_99pct_fresh"] > by_lag[1]["t_99pct_fresh"]

    def test_loss_hurts_tail_consistency(self):
        table = experiment_e4_consistency(lags=[4], loss_probabilities=[0.0, 0.1])
        records = table.to_records()
        clean = next(r for r in records if r["loss"] == 0.0)
        lossy = next(r for r in records if r["loss"] == 0.1)

        def as_num(v):
            return 10_000 if v == "never" else v

        assert as_num(lossy["t_99pct_fresh"]) >= as_num(clean["t_99pct_fresh"])


class TestE5:
    def test_all_tasks_perfect_accuracy(self):
        table = experiment_e5_conversion(scale_factor=0.05)
        assert all(r["accuracy"] == 1.0 for r in table.to_records())

    def test_six_tasks(self):
        table = experiment_e5_conversion(scale_factor=0.05)
        assert len(table.rows) == 6


class TestE6:
    def test_unified_never_fractures_polyglot_always(self):
        table = experiment_e6_atomicity(trials=8)
        records = {r["architecture"]: r for r in table.to_records()}
        unified = records["unified (single WAL)"]
        polyglot = records["polyglot (commit per store)"]
        assert unified["fractured_states"] == 0
        assert polyglot["fractured_states"] == polyglot["trials"]


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "F1", "F1b", "E1", "E2", "E3a", "E3b", "E3c", "E4", "E5", "E6",
        }
