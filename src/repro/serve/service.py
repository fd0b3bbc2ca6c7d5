"""The service application layer: handlers, jobs, metrics, tracing.

:class:`SimulationService` is everything the HTTP layer dispatches into,
kept free of sockets so tests (and the CLI) can drive it directly:

* ``simulate(payload)`` — settle one cell through the
  :class:`~repro.serve.scheduler.SimulationScheduler` (warm store hit,
  coalesced join, or fresh computation) and wrap it in an envelope;
* ``sweep(payload)`` — expand a grid request into cells, register a
  background *job*, and return its id; cells flow through the same
  scheduler, so batch work shares the cache and coalesces with
  interactive requests. A shed cell backs off and retries — an accepted
  job is never silently dropped (:meth:`SweepJob.run` is that loop; the
  cluster router runs its fan-out through the same one);
* ``stream_job(job_id)`` — an async iterator of the job's progress
  events (NDJSON lines on the wire), ending after the terminal
  ``complete`` event;
* ``profile(payload)`` / ``control(payload)`` — the control plane's wire
  ingest: ``POST /v1/profile`` merges per-pair traffic counts into a
  service-held :class:`~repro.control.profile.TrafficProfile`, and
  ``POST /v1/control`` runs the decide + compile stages against the
  accumulated window, returning the decision and the frozen band plan
  (no simulation is touched — this is the advisory path a deployed
  controller would poll);
* ``health()`` / ``metrics()`` — liveness and the full metrics envelope,
  including a *reconciliation* block proving every settled request is
  accounted: ``simulate requests - rejected + sweep cells ==
  store + coalesced + computed + shed + timeout + error``.

Every request leaves one ``kind="request"`` event in a bounded
:class:`~repro.obs.trace.EventTracer` ring (endpoint in ``port``,
status/source in ``detail``), exposed at ``GET /v1/trace``.
"""

from __future__ import annotations

import asyncio
import itertools
import secrets
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Callable, Optional

from repro.exec.jobs import JobSpec
from repro.exec.store import ResultStore
from repro.experiments.config import ExperimentConfig, resolve_config
from repro.experiments.export import jsonable
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import EventTracer
from repro.params import DEFAULT_PARAMS, ArchitectureParams
from repro.serve.protocol import (
    RequestError, check_fields, envelope, error_envelope, parse_simulate,
    parse_sweep, request_timeout, result_fields,
)
from repro.serve.scheduler import (
    RequestTimeout, ServiceOverloaded, SimulationScheduler,
)

#: Scheduler settlement labels, in reconciliation order.
SETTLE_SOURCES = ("store", "coalesced", "computed", "shed", "timeout", "error")


#: Longest a shed sweep cell sleeps before it is re-offered, seconds.
MAX_BACKOFF_S = 5


class Backoff(Exception):
    """A ``settle`` callable's "shed — re-offer this cell later"."""

    def __init__(self, retry_after_s: float):
        super().__init__(f"retry after {retry_after_s}s")
        self.retry_after_s = retry_after_s


#: Settles sweep cell ``index``: the fields of its progress event
#: (``source``, ``digest``, ``wall_s``, ``result`` and, behind the router,
#: ``shard``).  Raises :class:`Backoff` when shed, anything else to fail
#: the job.
SettleFn = Callable[[int, JobSpec], Awaitable[dict]]


@dataclass
class SweepJob:
    """One background sweep: its cells, progress events, and outcome."""

    job_id: str
    specs: list[JobSpec]
    status: str = "running"              # running | done | failed
    events: list[dict] = field(default_factory=list)
    summary: Optional[dict] = None
    cond: asyncio.Condition = field(default_factory=asyncio.Condition)
    task: Optional[asyncio.Task] = None

    async def emit(self, event: dict) -> None:
        """Append one progress event and wake every streaming reader."""
        async with self.cond:
            self.events.append(event)
            self.cond.notify_all()

    async def finish(self, status: str, summary: dict) -> None:
        """Settle the job and emit its terminal ``complete`` event."""
        async with self.cond:
            self.status = status
            self.summary = summary
            self.events.append(
                {"event": "complete", "status": status, "summary": summary}
            )
            self.cond.notify_all()

    async def run(self, settle: SettleFn, width: int) -> None:
        """Settle every cell, ``width`` at a time, then finish the job.

        Batch cells defer to interactive load instead of failing: a shed
        cell emits ``backoff``, sleeps the hinted time (capped) and is
        re-offered, so an accepted job never drops a cell.
        """
        sem = asyncio.Semaphore(width)
        sources: dict[str, int] = {}
        shards: dict[str, int] = {}
        start = time.perf_counter()

        async def one(index: int, spec: JobSpec) -> None:
            async with sem:
                while True:
                    try:
                        cell = await settle(index, spec)
                    except Backoff as exc:
                        await self.emit({
                            "event": "backoff", "index": index,
                            "retry_after_s": exc.retry_after_s,
                        })
                        await asyncio.sleep(
                            min(exc.retry_after_s, MAX_BACKOFF_S))
                        continue
                    break
                sources[cell["source"]] = sources.get(cell["source"], 0) + 1
                if "shard" in cell:
                    shards[cell["shard"]] = shards.get(cell["shard"], 0) + 1
                await self.emit({
                    "event": "hit" if cell["source"] == "store" else "done",
                    "index": index, **cell,
                })

        try:
            await asyncio.gather(*(
                one(i, spec) for i, spec in enumerate(self.specs)))
        except asyncio.CancelledError:
            await self.finish("failed", {"error": "cancelled"})
            raise
        except Exception as exc:
            await self.finish("failed", {"error": str(exc)})
            return
        summary = {
            "cells": len(self.specs),
            "wall_s": time.perf_counter() - start,
            "sources": dict(sorted(sources.items())),
        }
        if shards:
            summary["shards"] = dict(sorted(shards.items()))
        await self.finish("done", summary)

    async def stream(self) -> AsyncIterator[dict]:
        """Every event from the first, ending after ``complete``."""
        index = 0
        while True:
            async with self.cond:
                while index >= len(self.events) and self.status == "running":
                    await self.cond.wait()
                fresh = self.events[index:]
                index = len(self.events)
                finished = self.status != "running"
            for event in fresh:
                yield event
            if finished and index >= len(self.events):
                return


class SweepJobs:
    """A tier's sweep-job registry: ids, background tasks, status counts."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._jobs: dict[str, SweepJob] = {}
        self._seq = itertools.count(1)

    def launch(self, specs: list[JobSpec], settle: SettleFn,
               width: int) -> SweepJob:
        """Register a job and start :meth:`SweepJob.run` in the background."""
        job_id = f"{self.prefix}-{next(self._seq):04d}-{secrets.token_hex(4)}"
        job = self._jobs[job_id] = SweepJob(job_id=job_id, specs=specs)
        job.task = asyncio.create_task(job.run(settle, width), name=job_id)
        return job

    def get(self, job_id: str) -> Optional[SweepJob]:
        return self._jobs.get(job_id)

    def cancel(self) -> None:
        """Cancel every job still running (tier shutdown)."""
        for job in self._jobs.values():
            if job.task is not None and not job.task.done():
                job.task.cancel()

    def counts(self) -> dict[str, int]:
        """Jobs per status, for ``/healthz``."""
        return {status: sum(1 for job in self._jobs.values()
                            if job.status == status)
                for status in ("running", "done", "failed")}


class SimulationService:
    """Socket-free core of the serving tier (see :mod:`repro.serve.http`)."""

    def __init__(
        self,
        *,
        config: Optional[ExperimentConfig] = None,
        params: ArchitectureParams = DEFAULT_PARAMS,
        store: Optional[ResultStore] = None,
        executor=None,
        queue_limit: int = 16,
        concurrency: int = 2,
        max_timeout_s: float = 600.0,
        fast: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
        shard_id: Optional[str] = None,
    ):
        self.scheduler = SimulationScheduler(
            config=resolve_config(config, fast=fast), params=params,
            store=store, executor=executor,
            queue_limit=queue_limit, concurrency=concurrency,
            max_timeout_s=max_timeout_s, registry=registry,
        )
        self.registry = self.scheduler.registry
        self.tracer = tracer if tracer is not None else EventTracer(4096)
        self.jobs = SweepJobs("job")
        self._start_monotonic = time.monotonic()
        #: Stable worker identity: a cluster supervisor names its shards
        #: (``shard-0``, ``shard-1``, ...); a standalone service is ``solo``.
        self.shard_id = shard_id if shard_id else "solo"
        self.draining = False
        #: Control-plane ingest state (lazy: built on first /v1/profile).
        self._ingest = None
        self._control_topology = None

    @property
    def store(self) -> Optional[ResultStore]:
        return self.scheduler.store

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await self.scheduler.start()

    async def stop(self) -> None:
        self.jobs.cancel()
        await self.scheduler.stop()

    # -- shared accounting --------------------------------------------------

    def _count(self, endpoint: str) -> None:
        self.registry.counter("serve_requests", endpoint=endpoint).inc()

    def _trace(self, endpoint: str, detail: str) -> None:
        elapsed_ms = int((time.monotonic() - self._start_monotonic) * 1000)
        self.tracer.emit(cycle=elapsed_ms, kind="request", packet=-1,
                         port=endpoint, detail=detail)

    def _reject(self, endpoint: str, exc: Exception) -> tuple[int, dict, dict]:
        self.registry.counter("serve_rejected", endpoint=endpoint).inc()
        self._trace(endpoint, f"400 {exc}")
        return 400, error_envelope(str(exc)), {}

    # -- simulate -----------------------------------------------------------

    async def simulate(self, payload: dict) -> tuple[int, dict, dict]:
        """Settle one cell; returns (HTTP status, envelope, extra headers)."""
        self._count("simulate")
        start = time.perf_counter()
        try:
            spec = parse_simulate(payload)
            timeout_s = request_timeout(payload, self.scheduler.max_timeout_s)
        except RequestError as exc:
            return self._reject("simulate", exc)
        try:
            outcome = await self.scheduler.submit(spec, timeout_s)
        except ServiceOverloaded as exc:
            self._trace("simulate", "429 shed")
            return (429,
                    error_envelope(str(exc),
                                   retry_after_s=exc.retry_after_s),
                    {"Retry-After": str(exc.retry_after_s)})
        except RequestTimeout as exc:
            self._trace("simulate", "504 timeout")
            return 504, error_envelope(str(exc)), {}
        except Exception as exc:
            self._trace("simulate", f"500 {type(exc).__name__}")
            return 500, error_envelope(f"simulation failed: {exc}"), {}
        request_ms = (time.perf_counter() - start) * 1000.0
        self.registry.histogram("serve_request_ms").observe(request_ms)
        self._trace("simulate", f"200 {outcome.source}")
        return 200, envelope(
            status="ok",
            source=outcome.source,
            digest=outcome.digest,
            wall_s=outcome.wall_s,
            request_ms=request_ms,
            spec=jsonable(outcome.spec),
            result=result_fields(outcome.result),
        ), {}

    # -- sweep jobs ---------------------------------------------------------

    async def sweep(self, payload: dict) -> tuple[int, dict, dict]:
        """Register a background sweep job; returns its id immediately."""
        self._count("sweep")
        try:
            specs = parse_sweep(payload)
        except RequestError as exc:
            return self._reject("sweep", exc)
        job = self.jobs.launch(specs, self._settle_cell,
                               self.scheduler.concurrency)
        self._trace("sweep", f"202 {job.job_id} cells={len(specs)}")
        return 202, envelope(status="accepted", job_id=job.job_id,
                             cells=len(specs)), {}

    async def _settle_cell(self, index: int, spec: JobSpec) -> dict:
        """One sweep cell through the scheduler (a :data:`SettleFn`)."""
        self._count("sweep_cell")
        try:
            outcome = await self.scheduler.submit(spec)
        except ServiceOverloaded as exc:
            raise Backoff(exc.retry_after_s) from exc
        return {"source": outcome.source, "digest": outcome.digest,
                "wall_s": outcome.wall_s,
                "result": result_fields(outcome.result)}

    async def stream_job(
        self, job_id: str,
    ) -> Optional[AsyncIterator[dict]]:
        """Async iterator over a job's events (None for an unknown id)."""
        self._count("jobs")
        job = self.jobs.get(job_id)
        if job is None:
            self._trace("jobs", f"404 {job_id}")
            return None
        self._trace("jobs", f"200 {job_id}")
        return job.stream()

    # -- control plane: ingest + decide -------------------------------------

    #: Fields a profile-ingest request may carry.
    PROFILE_FIELDS = frozenset({"pairs", "decay"})

    #: Fields a control-decision request may carry.
    CONTROL_FIELDS = frozenset({"online", "current", "access_points"})

    def _control_state(self):
        """The service-held (topology, TrafficProfile) ingest state."""
        if self._ingest is None:
            from repro.control.profile import TrafficProfile
            from repro.noc.topology import build_topology

            self._control_topology = build_topology(
                self.scheduler.params.mesh)
            self._ingest = TrafficProfile(
                self._control_topology.num_routers)
        return self._control_topology, self._ingest

    def profile(self, payload: dict) -> tuple[int, dict, dict]:
        """Handle ``POST /v1/profile``: merge remote per-pair counts.

        The body is ``{"pairs": [[src, dst, count(, bytes)], ...]}`` —
        the :meth:`TrafficProfile.merge_pairs` wire shape.  ``"decay":
        true`` ages the window after the merge (the remote end of an
        epoch boundary).
        """
        self._count("profile")
        topo, ingest = self._control_state()
        try:
            check_fields(payload, self.PROFILE_FIELDS)
            pairs = payload.get("pairs", [])
            if not isinstance(pairs, list):
                raise RequestError("'pairs' must be a list")
            for row in pairs:
                if not isinstance(row, (list, tuple)) or len(row) not in (3, 4):
                    raise RequestError(
                        "'pairs' rows must be [src, dst, count(, bytes)]")
            merged = ingest.merge_pairs(pairs)
            if payload.get("decay"):
                ingest.decay_window()
        except (RequestError, ValueError, TypeError) as exc:
            return self._reject("profile", exc)
        self._trace("profile", f"200 merged={merged}")
        return 200, envelope(status="ok", merged=merged,
                             profile=ingest.snapshot()), {}

    def control(self, payload: dict) -> tuple[int, dict, dict]:
        """Handle ``POST /v1/control``: decide + compile, no simulation.

        Runs the decide stage against the accumulated ingest window and
        the compile stage against the proposal, returning the decision
        and the frozen band plan — the advisory poll path of a deployed
        controller.  ``current`` (a list of ``[src, dst]`` pairs) is the
        placement on the wire; ``online`` is a control spec string for
        the hysteresis/budget knobs; ``access_points`` overrides the
        service config's count.
        """
        self._count("control")
        try:
            check_fields(payload, self.CONTROL_FIELDS)
            from repro.control.compiler import compile_configuration
            from repro.control.decide import ShortcutDecider
            from repro.control.loop import ControlConfig

            online = payload.get("online")
            if online in (None, True):
                online = ""
            if not isinstance(online, str):
                raise RequestError(
                    "'online' must be a control spec string")
            try:
                control = ControlConfig.from_spec(online)
            except ValueError as exc:
                raise RequestError(str(exc)) from exc
            topo, ingest = self._control_state()
            aps = payload.get("access_points")
            if aps is None:
                aps = self.scheduler.config.num_access_points
            if not isinstance(aps, int) or isinstance(aps, bool) or aps <= 0:
                raise RequestError("'access_points' must be positive")
            raw_current = payload.get("current", [])
            if not isinstance(raw_current, list):
                raise RequestError("'current' must be a list of [src, dst]")
            current = []
            for row in raw_current:
                if not isinstance(row, (list, tuple)) or len(row) != 2:
                    raise RequestError(
                        "'current' entries must be [src, dst] pairs")
                current.append((int(row[0]), int(row[1])))
            decider = ShortcutDecider(
                topo, topo.rf_enabled_routers(aps),
                budget=(control.budget
                        or self.scheduler.params.rfi.shortcut_budget),
                use_regions=control.use_regions,
                hysteresis=control.hysteresis,
            )
            decision = decider.decide(ingest.matrix(), tuple(current))
        except (RequestError, ValueError, TypeError) as exc:
            return self._reject("control", exc)
        band_config, _ = compile_configuration(topo, decision.shortcuts)
        self._trace("control", f"200 {decision.action}:{decision.reason}")
        return 200, envelope(
            status="ok",
            action=decision.action,
            reason=decision.reason,
            predicted_gain=decision.predicted_gain,
            objective_before=decision.objective_before,
            objective_after=decision.objective_after,
            shortcuts=[list(pair) for pair in decision.shortcuts],
            bands=band_config.to_dict(),
            window_messages=ingest.window_messages,
        ), {}

    # -- health / metrics / trace -------------------------------------------

    def drain(self) -> dict:
        """Handle ``POST /v1/drain``: mark this worker draining.

        A draining worker keeps answering every request it receives (the
        in-flight work settles normally) — the flag is advisory identity
        the cluster router and supervisor read from ``/healthz`` to stop
        routing *new* keys here.
        """
        self.draining = True
        self._trace("drain", "200 draining")
        return envelope(status="draining", shard_id=self.shard_id)

    def health(self) -> dict:
        """Liveness payload for ``GET /healthz``."""
        self._count("healthz")
        queue = self.scheduler._queue
        return envelope(
            status="draining" if self.draining else "ok",
            shard_id=self.shard_id,
            uptime_s=time.monotonic() - self._start_monotonic,
            queue_depth=queue.qsize() if queue is not None else 0,
            queue_limit=self.scheduler.queue_limit,
            concurrency=self.scheduler.concurrency,
            inflight=len(self.scheduler._inflight),
            jobs=self.jobs.counts(),
            store_entries=len(self.store) if self.store is not None else 0,
        )

    def reconciliation(self) -> dict:
        """Proof that every settled request is accounted exactly once."""
        reg = self.registry
        requests = reg.value("serve_requests", endpoint="simulate") or 0
        rejected = reg.value("serve_rejected", endpoint="simulate") or 0
        cells = reg.value("serve_requests", endpoint="sweep_cell") or 0
        settled = {
            source: reg.value("serve_settled", source=source) or 0
            for source in SETTLE_SOURCES
        }
        accounted = sum(settled.values())
        expected = requests - rejected + cells
        return {
            "requests": requests,
            "rejected": rejected,
            "sweep_cells": cells,
            "settled": settled,
            "accounted": accounted,
            "balanced": accounted == expected,
        }

    def metrics(self) -> dict:
        """The full metrics envelope for ``GET /metrics``."""
        self._count("metrics")
        reg = self.registry
        requests = {
            dict(inst.labels).get("endpoint", ""): inst.value
            for inst in reg.series("serve_requests")
        }
        return envelope(
            status="ok",
            requests=requests,
            settled=self.reconciliation()["settled"],
            reconciliation=self.reconciliation(),
            store=(self.store.stats.as_dict()
                   if self.store is not None else None),
            snapshot=reg.snapshot(),
        )

    def trace(self, limit: int = 200) -> dict:
        """The most recent request-trace events (``GET /v1/trace``)."""
        events = [event.to_dict() for event in self.tracer.events("request")]
        return envelope(status="ok", events=events[-limit:])
