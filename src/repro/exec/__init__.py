"""Execution engine: addressable jobs, a persistent result store, and a
parallel sweep executor.

Three layers (see docs/architecture.md, "Execution engine & result store"):

* :mod:`repro.exec.jobs` — :class:`JobSpec`, a frozen description of one
  experiment cell, with a stable content digest over (spec, config, params);
* :mod:`repro.exec.store` — :class:`ResultStore`, an on-disk JSON cache
  keyed by digest, with schema versioning and corrupt-entry quarantine;
* :mod:`repro.exec.engine` — :func:`run_sweep`, a process-pool sweep with
  deterministic (submission-order) results, retry-once, and telemetry;
  plus :class:`JobExecutor`, a long-lived one-spec-at-a-time pool over the
  same worker recipe (the serving tier's hook, see :mod:`repro.serve`).

Quick start::

    from repro.exec import ResultStore, run_sweep, sweep_grid
    store = ResultStore("benchmarks/results/cache")
    report = run_sweep(sweep_grid(["baseline", "static"], [16, 8],
                                  ["uniform"]),
                       store=store, jobs=4)
    for outcome in report.outcomes:
        print(outcome.spec.describe(), outcome.result.avg_latency)
"""

from repro.exec.engine import (
    JobExecutor, JobOutcome, SweepReport, execute_spec, run_sweep,
)
from repro.exec.jobs import JobSpec, job_digest, normalize_spec, sweep_grid
from repro.exec.serialize import (
    decode_result, decode_stats, encode_result, encode_stats,
)
from repro.exec.store import SCHEMA_VERSION, ResultStore, StoreStats

__all__ = [
    "JobExecutor",
    "JobOutcome",
    "JobSpec",
    "ResultStore",
    "SCHEMA_VERSION",
    "StoreStats",
    "SweepReport",
    "decode_result",
    "decode_stats",
    "encode_result",
    "encode_stats",
    "execute_spec",
    "job_digest",
    "normalize_spec",
    "run_sweep",
    "sweep_grid",
]
