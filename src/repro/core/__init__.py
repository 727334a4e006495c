"""The UDBMS benchmark core: workloads, runners, experiments, reports.

- :mod:`repro.core.workloads`   — the shared query set Q1-Q12 (MMQL, each
  spanning multiple models; Q11/Q12 probe the optimizer) and
  transactions T1-T4 (cross-model read-write units, including the
  paper's order-update example)
- :mod:`repro.core.runner`      — latency/throughput measurement
- :mod:`repro.core.experiments` — F1 and E1-E6, each returning a
  printable result table (``python -m repro`` renders them)
"""

from repro.core.config import BenchmarkConfig
from repro.core.runner import QueryRunner, TransactionRunner
from repro.core.workloads import QUERIES, TRANSACTIONS, QueryDef, TransactionDef

__all__ = [
    "BenchmarkConfig",
    "QUERIES",
    "QueryDef",
    "QueryRunner",
    "TRANSACTIONS",
    "TransactionDef",
    "TransactionRunner",
]
