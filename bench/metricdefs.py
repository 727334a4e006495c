"""Names, units and directions of every metric the benchmark emits.

``BENCHMARK.json`` repeats these (the smoke test checks that the two
agree); ``bench/README.md`` explains them.  Layers are the packages
under ``src/repro/``.
"""

from __future__ import annotations

# (name, unit, better, bound): what a user of the system sees.  The bound
# is the share of the parent's median a metric may worsen by.  Every
# timing sits at 0.25, the widest a bound may be: on the 2-core sandbox
# ten runs of one commit spread by up to 0.15 of their median in a quiet
# half hour and by more in a busy one (README, "Measured spread"), and a
# bound tighter than the spread only yields "unresolved".
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("recovery_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

QUERY_OPS = [f"Q{i}" for i in range(1, 13)] + ["Q1L", "Q11L"]
TXN_OPS = ["T1", "T2", "T3", "T4"]

# (name, unit, better): one layer each, no bound.
PER_LAYER = (
    [
        ("datagen.generate_s", "s", "lower"),
        ("datagen.load_s", "s", "lower"),
        ("datagen.index_build_s", "s", "lower"),
        ("datagen.warmup_s", "s", "lower"),
    ]
    + [(f"drivers.op.{op}.p50_ms", "ms", "lower") for op in QUERY_OPS + TXN_OPS]
    + [
        ("drivers.context_s", "s", "lower"),
        ("drivers.client_resubmits", "count", "lower"),
        ("drivers.latency_p99_ms", "ms", "lower"),
        ("query.parse_s", "s", "lower"),
        ("query.parameterize_s", "s", "lower"),
        ("query.plancache_s", "s", "lower"),
        ("query.plan_s", "s", "lower"),
        ("query.plancache_hit_rate", "share", "higher"),
        ("query.memo_hit_rate", "share", "higher"),
        ("query.execute_s", "s", "lower"),
        ("query.rows_scanned_per_row_returned", "count", "lower"),
        ("query.index_lookups_per_query", "count", "lower"),
        ("query.scans_per_query", "count", "lower"),
        ("models.xml.xpath_s", "s", "lower"),
        ("models.xml.xpath_calls", "count", "lower"),
        ("models.graph.traverse_s", "s", "lower"),
        ("models.graph.traverse_calls", "count", "lower"),
        ("models.kv.prefix_scan_s", "s", "lower"),
        ("models.kv.prefix_scan_calls", "count", "lower"),
        ("engine.begin_s", "s", "lower"),
        ("engine.commit_s", "s", "lower"),
        ("engine.wal_append_s", "s", "lower"),
        ("engine.wal_appends_per_txn", "count", "lower"),
        ("engine.wal_bytes_per_txn", "B", "lower"),
        ("engine.wal_syncs_per_txn", "count", "lower"),
        ("engine.lock_waits", "count", "lower"),
        ("engine.conflicts", "count", "lower"),
        ("engine.aborts", "count", "lower"),
        ("engine.recover_records_per_s", "1/s", "higher"),
        ("cluster.plan_s", "s", "lower"),
        ("cluster.routed_share", "share", "higher"),
        ("cluster.fanout_mean", "count", "lower"),
        ("cluster.scatter_s", "s", "lower"),
        ("cluster.queue_s", "s", "lower"),
        ("cluster.remote_request_s", "s", "lower"),
        ("cluster.encode_s", "s", "lower"),
        ("cluster.decode_s", "s", "lower"),
        ("cluster.bytes_sent_per_query", "B", "lower"),
        ("cluster.bytes_received_per_query", "B", "lower"),
        ("cluster.plans_shipped", "count", "lower"),
        ("cluster.worker_sync_s", "s", "lower"),
        ("cluster.worker_restarts", "count", "lower"),
        ("cluster.request_retries", "count", "lower"),
        ("cluster.session_commit_s", "s", "lower"),
        ("cluster.cross_shard_share", "share", "lower"),
        ("txn.twopc_commit_s", "s", "lower"),
        ("txn.prepare_s", "s", "lower"),
        ("txn.decision_log_s", "s", "lower"),
        ("txn.twopc_share", "share", "lower"),
        ("txn.aborts_in_prepare", "count", "lower"),
        ("txn.coordinator_log_appends_per_2pc", "count", "lower"),
        ("replication.replicate_s", "s", "lower"),
        ("replication.quorum_wait_s", "s", "lower"),
        ("replication.records_shipped_per_txn", "count", "lower"),
        ("replication.coordinator_log_ships_per_2pc", "count", "lower"),
        ("replication.follower_lag_records_max", "count", "lower"),
        ("replication.catch_up_s", "s", "lower"),
        ("obs.trace_overhead_share", "share", "lower"),
        ("obs.unattributed_share", "share", "lower"),
    ]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
