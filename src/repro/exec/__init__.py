"""Execution engine: addressable jobs, a persistent result store, and a
parallel sweep executor.

Three layers (see docs/architecture.md, "Execution engine & result store"):

* :mod:`repro.exec.jobs` — :class:`JobSpec`, a frozen description of one
  experiment cell, with a stable content digest over (spec, config, params);
  also the one owner of the *cell vocabulary* every surface validates
  through (:func:`check_cell`, :func:`cell_extra`, :class:`SpecError`);
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
from repro.exec.jobs import (
    CONTROL_STYLES, DESIGN_STYLES, LINK_WIDTHS, JobSpec, SpecError,
    cell_extra, check_cell, job_digest, known_workloads, normalize_spec,
    sweep_grid,
)
from repro.exec.serialize import (
    decode_result, decode_stats, encode_result, encode_stats,
)
from repro.exec.store import SCHEMA_VERSION, ResultStore, StoreStats

__all__ = [
    "CONTROL_STYLES",
    "DESIGN_STYLES",
    "LINK_WIDTHS",
    "JobExecutor",
    "JobOutcome",
    "JobSpec",
    "ResultStore",
    "SCHEMA_VERSION",
    "SpecError",
    "StoreStats",
    "SweepReport",
    "cell_extra",
    "check_cell",
    "decode_result",
    "decode_stats",
    "encode_result",
    "encode_stats",
    "execute_spec",
    "job_digest",
    "known_workloads",
    "normalize_spec",
    "run_sweep",
    "sweep_grid",
]
