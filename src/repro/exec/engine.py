"""Parallel sweep engine: run many JobSpecs, cache-aware and deterministic.

Experiment cells are embarrassingly parallel (each is one self-contained
simulation), so the engine fans misses out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while the parent process
owns the store: it resolves cache hits up front, writes every fresh result
back, and assembles the report **in submission order** — the output of a
parallel sweep is byte-identical to a serial one, whatever order workers
finish in.

Each worker process builds one :class:`ExperimentRunner` lazily and reuses
it across jobs (topology, patterns, and profiles amortize).  A job that
raises is retried once (transient failures — OOM-killed sibling, signal —
shouldn't sink a long sweep); a second failure propagates.

Telemetry: every :class:`JobOutcome` records wall time, measured simulation
cycles, cycles/second, attempts, and whether it came from the cache; the
:class:`SweepReport` aggregates hit/miss counts and total wall time.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.exec.jobs import JobSpec, job_digest, normalize_spec
from repro.exec.serialize import decode_result, encode_result
from repro.exec.store import ResultStore
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.export import jsonable
from repro.obs.profile import Profiler
from repro.params import DEFAULT_PARAMS, ArchitectureParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import ExperimentRunner, RunResult

#: Progress callback: receives small event dicts as the sweep advances.
ProgressFn = Callable[[dict], None]


@dataclass(frozen=True)
class JobOutcome:
    """One job's result plus its execution telemetry."""

    spec: JobSpec
    digest: str
    result: "RunResult"
    cached: bool
    wall_s: float
    sim_cycles: int
    attempts: int
    #: Wall-clock per phase (``{"simulate_s": ..., "encode_s": ...}``) for
    #: fresh runs; empty for cache hits.
    profile: dict = field(default_factory=dict, compare=False)

    @property
    def cycles_per_sec(self) -> float:
        """Measured-window simulation cycles per wall-clock second."""
        if self.wall_s <= 0:
            return float("inf") if self.sim_cycles else 0.0
        return self.sim_cycles / self.wall_s


@dataclass
class SweepReport:
    """All outcomes of one sweep, in submission order."""

    outcomes: list[JobOutcome]
    wall_s: float
    hits: int
    misses: int
    #: Parent-process phases (store lookups/writes), from the engine.
    profile: dict = field(default_factory=dict)

    @property
    def results(self) -> list["RunResult"]:
        """Just the results, aligned with the submitted spec order."""
        return [outcome.result for outcome in self.outcomes]

    def phase_profile(self) -> dict[str, float]:
        """Per-phase wall totals: parent phases + every job's phases."""
        merged = Profiler()
        merged.merge(self.profile)
        for outcome in self.outcomes:
            merged.merge(outcome.profile)
        return merged.as_dict()

    def summary(self) -> dict:
        """Aggregate telemetry as a JSON-safe dict."""
        sim_wall = sum(o.wall_s for o in self.outcomes if not o.cached)
        sim_cycles = sum(o.sim_cycles for o in self.outcomes if not o.cached)
        return {
            "jobs": len(self.outcomes),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "wall_s": self.wall_s,
            "simulated_wall_s": sim_wall,
            "simulated_cycles": sim_cycles,
            "cycles_per_sec": sim_cycles / sim_wall if sim_wall else 0.0,
            "profile": self.phase_profile(),
        }


# -- job execution (shared by the serial path and pool workers) --------------

def execute_spec(
    runner: "ExperimentRunner",
    spec: JobSpec,
    observation=None,
    stage_profile=None,
) -> "RunResult":
    """Run one spec on a runner (the runner consults its own store, if any).

    The engine's stub seam over :meth:`ExperimentRunner.prepare
    <repro.experiments.runner.ExperimentRunner.prepare>` — the one spec →
    cell path, which documents ``observation`` and ``stage_profile``.
    """
    return runner.prepare(spec, observation, stage_profile).run()


_WORKER_RUNNER: Optional["ExperimentRunner"] = None


def _init_worker(config: ExperimentConfig, params: ArchitectureParams) -> None:
    """Build this worker's long-lived runner (no store: the parent owns it)."""
    global _WORKER_RUNNER
    from repro.experiments.runner import ExperimentRunner

    _WORKER_RUNNER = ExperimentRunner(config, params)


def _run_job(
    spec: JobSpec, trace_path=None, stage_profile: bool = False,
    runner: Optional["ExperimentRunner"] = None,
) -> tuple[dict, float, int, dict]:
    """Simulate one spec; ship the payload back picklable.

    The one per-job recipe: the serial sweep passes its ``runner``, pool
    workers default to their process's long-lived one.  When
    ``trace_path`` is given the job runs observed (fresh, with metrics and
    the event tracer) and writes its JSONL trace before returning — the
    events stay worker-side; only the path crosses back.
    ``stage_profile`` adds per-pipeline-stage kernel timing to the job's
    phase profile (``stage_*_s`` keys).
    """
    from repro.obs.profile import StageProfile

    prof = Profiler()
    observation = None
    if trace_path is not None:
        from repro.obs import EventTracer, MetricsRegistry, Observation

        observation = Observation(metrics=MetricsRegistry(),
                                  tracer=EventTracer())
    sp = StageProfile() if stage_profile else None
    start = time.perf_counter()
    with prof.phase("simulate"):
        result = execute_spec(runner or _WORKER_RUNNER, spec, observation, sp)
    with prof.phase("encode"):
        payload = encode_result(result)
    if observation is not None:
        with prof.phase("trace_write"):
            observation.tracer.write_jsonl(trace_path)
    wall = time.perf_counter() - start
    if sp is not None and sp.cycles:
        prof.merge(sp.as_dict())
    return payload, wall, result.stats.activity.cycles, prof.as_dict()


class JobExecutor:
    """A long-lived process pool executing *individual* JobSpecs.

    The sweep engine owns its pool per :func:`run_sweep` call; the serving
    tier (:mod:`repro.serve`) instead needs a pool that outlives any one
    request and accepts cells one at a time.  This wraps the same worker
    recipe — :func:`_init_worker` builds one
    :class:`~repro.experiments.runner.ExperimentRunner` per worker process,
    :func:`_run_job` executes a spec on it — behind a ``submit`` that
    returns a :class:`concurrent.futures.Future`, so an asyncio caller can
    ``asyncio.wrap_future`` it.  Specs are normalized against the
    executor's config before dispatch, keeping addresses identical to the
    sweep engine's.  The pool never touches any store: result persistence
    stays with the caller (the scheduler), exactly as in :func:`run_sweep`.

    The pool uses the **spawn** start method, not the platform default
    fork.  The serving tier holds sockets — a listening port plus every
    accepted keep-alive and NDJSON-stream connection — and a forked pool
    child inherits duplicates of all of them at whatever moment the first
    cold cell arrives.  Those duplicates outlive the parent's close: a
    close-delimited stream never delivers its FIN while a pool child pins
    the fd, and a SIGKILLed worker's children keep its port bound so the
    supervisor's restart hits ``EADDRINUSE``.  Spawned children re-exec,
    and fds are non-inheritable across exec (PEP 446), so the pool starts
    clean.  The one-time interpreter start per worker is amortized over
    the pool's lifetime, which for the serving tier is the process's.
    """

    def __init__(
        self,
        config: ExperimentConfig = DEFAULT_CONFIG,
        params: ArchitectureParams = DEFAULT_PARAMS,
        max_workers: int = 2,
    ):
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.config = config
        self.params = params
        self.max_workers = max_workers
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker, initargs=(config, params),
        )
        self.submitted = 0

    def submit(self, spec: JobSpec):
        """Dispatch one spec; the future resolves to
        ``(payload, wall_s, sim_cycles, profile)`` — :func:`_run_job`'s
        shape — and raises whatever the simulation raised."""
        self.submitted += 1
        return self._pool.submit(
            _run_job, normalize_spec(spec, self.config)
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker processes (idempotent)."""
        self._pool.shutdown(wait=wait, cancel_futures=True)


# -- the sweep ---------------------------------------------------------------

def run_sweep(
    specs: Sequence[JobSpec],
    *,
    config: ExperimentConfig = DEFAULT_CONFIG,
    params: ArchitectureParams = DEFAULT_PARAMS,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    retries: int = 1,
    progress: Optional[ProgressFn] = None,
    trace_dir=None,
    stage_profile: bool = False,
) -> SweepReport:
    """Run every spec, consulting/filling ``store``, ``jobs``-wide.

    Results come back in submission order regardless of completion order,
    so ``jobs=8`` and ``jobs=1`` produce identical reports.  ``jobs <= 1``
    runs in-process (no pool); misses are retried up to ``retries`` extra
    times before the failure propagates.  ``trace_dir`` runs every job
    observed and writes one JSONL event trace per job into the directory;
    traced runs never consult or fill the store (``store`` is ignored).
    ``stage_profile`` times each simulated job's cycle kernel per pipeline
    stage; the totals surface as ``stage_*_s`` keys in job profiles and
    ``report.summary()["profile"]`` (opt-in: the timed cycle path costs
    throughput, so plain sweeps keep the untimed kernel loop).
    """
    specs = [normalize_spec(spec, config) for spec in specs]
    start = time.perf_counter()
    outcomes: list[Optional[JobOutcome]] = [None] * len(specs)
    digests = [job_digest(spec, config, params) for spec in specs]
    parent_prof = Profiler()
    trace_paths: list = [None] * len(specs)
    if trace_dir is not None:
        from pathlib import Path

        store = None                 # traced runs are always fresh
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_paths = [
            trace_dir / f"{i:03d}_{digest[:12]}.jsonl"
            for i, digest in enumerate(digests)
        ]

    def emit(event: str, index: int, **extra) -> None:
        if progress is not None:
            progress({"event": event, "index": index,
                      "job": specs[index].describe(), **extra})

    pending: list[int] = []
    for i, (spec, digest) in enumerate(zip(specs, digests)):
        if store is not None:
            with parent_prof.phase("store_load"):
                payload = store.load(digest)
        else:
            payload = None
        if payload is not None:
            outcomes[i] = JobOutcome(
                spec=spec, digest=digest, result=decode_result(payload),
                cached=True, wall_s=0.0, sim_cycles=0, attempts=0,
            )
            emit("hit", i)
        else:
            pending.append(i)

    def finish(i: int, payload: dict, wall: float, cycles: int,
               attempts: int, profile: Optional[dict] = None) -> None:
        if store is not None:
            with parent_prof.phase("store_save"):
                store.save(digests[i], payload,
                           meta={"spec": jsonable(specs[i])})
        with parent_prof.phase("decode"):
            result = decode_result(payload)
        outcomes[i] = JobOutcome(
            spec=specs[i], digest=digests[i], result=result,
            cached=False, wall_s=wall, sim_cycles=cycles, attempts=attempts,
            profile=dict(profile or {}),
        )
        emit("done", i, wall_s=wall)

    if pending and jobs > 1:
        _sweep_parallel(specs, pending, finish, emit, config, params,
                        jobs, retries, trace_paths, stage_profile)
    elif pending:
        _sweep_serial(specs, pending, finish, emit, config, params, retries,
                      trace_paths, stage_profile)

    return SweepReport(
        outcomes=list(outcomes),
        wall_s=time.perf_counter() - start,
        hits=len(specs) - len(pending),
        misses=len(pending),
        profile=parent_prof.as_dict(),
    )


def _sweep_serial(specs, pending, finish, emit, config, params,
                  retries, trace_paths, stage_profile=False) -> None:
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(config, params)
    for i in pending:
        attempts = 0
        while True:
            attempts += 1
            try:
                payload, wall, cycles, profile = _run_job(
                    specs[i], trace_paths[i], stage_profile, runner)
            except Exception:
                if attempts > retries:
                    raise
                emit("retry", i, attempts=attempts)
                continue
            finish(i, payload, wall, cycles, attempts, profile)
            break


def _sweep_parallel(specs, pending, finish, emit, config, params,
                    jobs, retries, trace_paths, stage_profile=False) -> None:
    attempts = dict.fromkeys(pending, 0)
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(pending)),
        initializer=_init_worker, initargs=(config, params),
    ) as pool:
        waiting = {}
        for i in pending:
            attempts[i] += 1
            waiting[pool.submit(_run_job, specs[i], trace_paths[i],
                                stage_profile)] = i
        while waiting:
            done, _ = wait(waiting, return_when=FIRST_COMPLETED)
            for future in done:
                i = waiting.pop(future)
                try:
                    payload, wall, cycles, profile = future.result()
                except Exception:
                    if attempts[i] > retries:
                        raise
                    attempts[i] += 1
                    emit("retry", i, attempts=attempts[i])
                    waiting[pool.submit(_run_job, specs[i],
                                        trace_paths[i], stage_profile)] = i
                    continue
                finish(i, payload, wall, cycles, attempts[i], profile)
