"""The resumable campaign runner and its checkpoint manifest.

A campaign executes in bounded *chunks* (``spec.chunk`` cells each).
After every chunk the runner rewrites ``campaign.json`` — the manifest —
atomically: campaign digest, per-cell status/source/metrics, chunk
counter.  Two mechanisms make a killed campaign restart with zero
recomputation:

* cells recorded ``done`` in the manifest are never re-submitted at all
  (their metrics ride in the manifest, so even reduction needs no store);
* cells simulated after the last checkpoint are already in the digest-
  addressed :class:`~repro.exec.store.ResultStore` (the sweep engine
  writes results as they land), so on restart they resolve as warm hits.

Cold cells run through :func:`~repro.exec.engine.run_sweep` — the same
process-pool engine, store, and addresses every other entrypoint uses —
or, with a :class:`~repro.serve.client.ServeClient`, through a running
``repro serve`` instance (the campaign then acts as the service's load
generator; transient 429 shedding is absorbed by the client's bounded
retry-with-backoff).

Campaign-level observability: per-source cell counters, a pending gauge,
and a phase profile rolled up from every chunk's sweep telemetry land in
the (optional) :class:`~repro.obs.metrics.MetricsRegistry` and in
:meth:`CampaignResult.summary`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.campaign.pareto import frontier_summary, pareto_frontier
from repro.campaign.spec import CampaignError, CampaignSpec, load_spec
from repro.exec.engine import run_sweep
from repro.exec.jobs import JobSpec, job_digest
from repro.exec.store import DEFAULT_CACHE, ResultStore
from repro.experiments.config import ExperimentConfig, resolve_config
from repro.experiments.export import jsonable
from repro.obs.profile import Profiler
from repro.params import DEFAULT_PARAMS, ArchitectureParams
from repro.serve.protocol import spec_fields

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.result import RunResult
    from repro.serve.client import ServeClient

#: Manifest layout version; bump on any incompatible shape change.
MANIFEST_SCHEMA = 1

#: The checkpoint file's name inside a campaign directory.
MANIFEST_NAME = "campaign.json"

#: Where campaign directories live by default.
DEFAULT_CAMPAIGN_ROOT = Path("benchmarks/results/campaigns")

#: Cell sources that did not cost a fresh simulation in *this* process.
WARM_SOURCES = ("store", "coalesced")

ProgressFn = Callable[[dict], None]


def cell_metrics(result: "RunResult") -> dict:
    """The JSON-safe metrics block a manifest cell carries.

    Exactly :meth:`RunResult.summary` — the same block the serving tier
    returns — so locally-run and serve-driven campaigns reduce over
    identical surfaces.
    """
    return result.summary()


def manifest_path(directory: str | Path) -> Path:
    """The checkpoint file of a campaign directory."""
    return Path(directory) / MANIFEST_NAME


def load_manifest(path: str | Path) -> Optional[dict]:
    """Read a manifest; None if absent, :class:`CampaignError` if broken."""
    path = Path(path)
    if path.is_dir():
        path = manifest_path(path)
    try:
        raw = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CampaignError(f"cannot read manifest {path}: {exc}") from exc
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CampaignError(
            f"manifest {path} is corrupt ({exc}); move it aside or rerun "
            "with fresh=True") from exc
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise CampaignError(
            f"manifest {path} has schema {manifest.get('schema')!r}; "
            f"this build writes {MANIFEST_SCHEMA}")
    return manifest


def _write_manifest(path: Path, manifest: dict) -> None:
    """Atomic replace, so a kill mid-write never corrupts the checkpoint."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)


def _new_manifest(spec: CampaignSpec, digest: str,
                  cells: list[JobSpec], digests: list[str]) -> dict:
    return {
        "schema": MANIFEST_SCHEMA,
        "campaign": digest,
        "name": spec.name,
        "spec": jsonable(spec),
        "status": "running",
        "chunks_done": 0,
        "cells": [
            {
                "digest": cell_digest,
                "job": jsonable(cell),
                "label": cell.describe(),
                "status": "pending",
                "source": None,
                "wall_s": None,
                "metrics": None,
            }
            for cell, cell_digest in zip(cells, digests)
        ],
    }


def _carry_over(manifest: dict, prior: dict) -> int:
    """Adopt ``prior``'s completed cells (matched by digest); returns count."""
    done = {
        cell["digest"]: cell
        for cell in prior.get("cells", ())
        if cell.get("status") == "done"
    }
    carried = 0
    for cell in manifest["cells"]:
        previous = done.get(cell["digest"])
        if previous is not None:
            cell.update(status="done", source=previous.get("source"),
                        wall_s=previous.get("wall_s"),
                        metrics=previous.get("metrics"))
            carried += 1
    manifest["chunks_done"] = prior.get("chunks_done", 0)
    return carried


# -- the result ---------------------------------------------------------------

@dataclass
class CampaignResult:
    """One ``run_campaign`` invocation: final manifest + run telemetry."""

    spec: CampaignSpec
    digest: str
    directory: Path
    manifest: dict
    warm: int            # cells resolved without simulating (this run)
    cold: int            # cells simulated fresh (this run)
    carried: int         # cells adopted done from a prior manifest
    wall_s: float
    sim_cycles: int = 0
    sim_wall_s: float = 0.0
    chunks_run: int = 0
    profile: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        """``done`` when every cell completed, else ``running``."""
        return self.manifest["status"]

    @property
    def cells(self) -> list[dict]:
        """Every cell record, in campaign order."""
        return self.manifest["cells"]

    @property
    def done_cells(self) -> list[dict]:
        return [c for c in self.cells if c["status"] == "done"]

    @property
    def pending(self) -> int:
        return len(self.cells) - len(self.done_cells)

    def pareto(self, objectives=None) -> list[dict]:
        """The Pareto frontier over the completed cells."""
        return pareto_frontier(self.done_cells,
                               tuple(objectives or self.spec.objectives))

    def summary(self) -> dict:
        """Campaign-level telemetry as a JSON-safe dict."""
        objectives = tuple(self.spec.objectives)
        frontier = self.pareto(objectives)
        return {
            "name": self.spec.name,
            "campaign": self.digest,
            "status": self.status,
            "cells": len(self.cells),
            "done": len(self.done_cells),
            "pending": self.pending,
            "warm": self.warm,
            "cold": self.cold,
            "carried": self.carried,
            "chunk": self.spec.chunk,
            "chunks_run": self.chunks_run,
            "wall_s": self.wall_s,
            "simulated_cycles": self.sim_cycles,
            "simulated_wall_s": self.sim_wall_s,
            "cycles_per_sec": (self.sim_cycles / self.sim_wall_s
                               if self.sim_wall_s else 0.0),
            "profile": dict(self.profile),
            "pareto": frontier_summary(frontier, objectives),
        }


# -- manifest-only views (``campaign status`` / ``campaign report``) ----------

def manifest_status(manifest: dict) -> dict:
    """Point-in-time progress counts from a manifest alone."""
    cells = manifest.get("cells", [])
    by_source: dict[str, int] = {}
    for cell in cells:
        if cell.get("status") == "done":
            source = cell.get("source") or "unknown"
            by_source[source] = by_source.get(source, 0) + 1
    done = sum(by_source.values())
    return {
        "name": manifest.get("name"),
        "campaign": manifest.get("campaign"),
        "status": manifest.get("status"),
        "cells": len(cells),
        "done": done,
        "pending": len(cells) - done,
        "chunks_done": manifest.get("chunks_done", 0),
        "sources": dict(sorted(by_source.items())),
    }


def manifest_report(manifest: dict, objectives=None) -> dict:
    """Pareto frontier from a manifest alone (no store access)."""
    spec_objectives = tuple(
        (manifest.get("spec") or {}).get("objectives")
        or ("latency", "power"))
    objectives = tuple(objectives) if objectives else spec_objectives
    done = [c for c in manifest.get("cells", []) if c.get("status") == "done"]
    frontier = pareto_frontier(done, objectives)
    return {
        "status": manifest_status(manifest),
        "objectives": list(objectives),
        "pareto": frontier_summary(frontier, objectives),
        "frontier": frontier,
    }


# -- execution ----------------------------------------------------------------

def _run_chunk_local(cells, indices, config, params, store, jobs, emit):
    """Run one chunk through the sweep engine.

    Returns ``(records, report)`` where records are per-cell
    ``(index, source, wall_s, metrics, sim_cycles)`` tuples.
    """
    report = run_sweep(
        [cells[i] for i in indices],
        config=config, params=params, store=store, jobs=jobs,
        progress=(lambda event, _indices=indices: emit({
            **event, "index": _indices[event["index"]],
        })),
    )
    records = []
    for local, outcome in zip(indices, report.outcomes):
        source = "store" if outcome.cached else "sim"
        records.append((local, source, outcome.wall_s,
                        cell_metrics(outcome.result), outcome.sim_cycles))
    return records, report


def _run_chunk_serve(cells, indices, client,
                     emit) -> list[tuple[int, str, float, dict, int]]:
    """Drive one chunk through a running serve worker or cluster router.

    The request vocabulary comes from
    :func:`repro.serve.protocol.spec_fields`, so a campaign speaks exactly
    what the service parses.  When the endpoint is the cluster router, the
    response names the shard that settled each cell; it rides along in the
    progress event so a campaign's live feed shows placement.
    """
    records = []
    for i in indices:
        response = client.simulate_with_retry(**spec_fields(cells[i]))
        if not response.ok:
            raise CampaignError(
                f"serve rejected cell {cells[i].describe()!r} "
                f"({response.status}): "
                f"{response.payload.get('error', 'request failed')}")
        payload = response.payload
        source = payload.get("source", "computed")
        wall = float(payload.get("wall_s") or 0.0)
        records.append((i, source, wall, dict(payload.get("result") or {}),
                        0))
        event = {"event": "hit" if source in WARM_SOURCES else "done",
                 "index": i, "job": cells[i].describe(), "wall_s": wall}
        if payload.get("shard"):
            event["shard"] = payload["shard"]
        emit(event)
    return records


def run_campaign(
    spec: Union[CampaignSpec, str, Path],
    *,
    config: Optional[ExperimentConfig] = None,
    params: ArchitectureParams = DEFAULT_PARAMS,
    store: Union[ResultStore, str, Path, None] = None,
    directory: Union[str, Path, None] = None,
    jobs: int = 1,
    client: Optional["ServeClient"] = None,
    fresh: bool = False,
    max_chunks: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    registry: Optional["MetricsRegistry"] = None,
) -> CampaignResult:
    """Run (or resume) a campaign; returns one :class:`CampaignResult`.

    ``spec`` is a :class:`CampaignSpec` or a path to a ``.toml``/``.json``
    spec file.  ``directory`` holds the checkpoint manifest (default
    ``benchmarks/results/campaigns/<name>``); an existing manifest for the
    same campaign digest resumes (completed cells are never re-submitted),
    a manifest for a *different* digest is refused unless ``fresh=True``.
    ``client`` (a :class:`~repro.serve.client.ServeClient`) drives cold
    cells through a running service instead of the local process pool.
    ``max_chunks`` bounds how many chunks this invocation executes —
    the checkpoint-and-stop primitive the resume tests (and incremental
    cron-style drivers) use.  ``registry`` receives campaign-level
    metrics (per-source cell counters, pending gauge, chunk counter).
    """
    if not isinstance(spec, CampaignSpec):
        spec = load_spec(spec)
    spec.validate()
    resolved_config = resolve_config(config, fast=spec.fast,
                                     kernel=spec.kernel)
    if store is None and client is None:
        store = ResultStore(DEFAULT_CACHE)
    elif not (store is None or isinstance(store, ResultStore)):
        store = ResultStore(store)
    directory = Path(directory) if directory is not None else (
        DEFAULT_CAMPAIGN_ROOT / spec.name)
    path = manifest_path(directory)

    start = time.perf_counter()
    cells = spec.expand(resolved_config)
    digests = [job_digest(cell, resolved_config, params) for cell in cells]
    digest = spec.digest(resolved_config, params)

    manifest = _new_manifest(spec, digest, cells, digests)
    carried = 0
    prior = None if fresh else load_manifest(path)
    if prior is not None:
        if prior.get("campaign") != digest:
            raise CampaignError(
                f"manifest {path} belongs to campaign "
                f"{str(prior.get('campaign'))[:12]}…, but this spec/config "
                f"digests to {digest[:12]}…; use a new directory or "
                "fresh=True")
        carried = _carry_over(manifest, prior)

    def emit(event: dict) -> None:
        if progress is not None:
            progress(event)

    def count_cell(source: str) -> None:
        if registry is not None:
            registry.counter("campaign_cells", source=source).inc()

    pending = [i for i, cell in enumerate(manifest["cells"])
               if cell["status"] != "done"]
    chunks = [pending[i:i + spec.chunk]
              for i in range(0, len(pending), spec.chunk)]
    profiler = Profiler()
    warm = cold = 0
    sim_cycles = 0
    sim_wall = 0.0
    chunks_run = 0

    for chunk_no, indices in enumerate(chunks):
        if max_chunks is not None and chunks_run >= max_chunks:
            break
        emit({"event": "chunk", "chunk": chunk_no + 1, "of": len(chunks),
              "cells": len(indices)})
        if client is not None:
            records = _run_chunk_serve(cells, indices, client, emit)
        else:
            records, report = _run_chunk_local(
                cells, indices, resolved_config, params, store, jobs, emit)
            profiler.merge(report.phase_profile())
            summary = report.summary()
            sim_cycles += summary["simulated_cycles"]
            sim_wall += summary["simulated_wall_s"]
        for i, source, wall, metrics, _cycles in records:
            manifest["cells"][i].update(
                status="done", source=source, wall_s=wall, metrics=metrics)
            count_cell(source)
            if source in WARM_SOURCES:
                warm += 1
            else:
                cold += 1
        chunks_run += 1
        manifest["chunks_done"] += 1
        remaining = sum(1 for cell in manifest["cells"]
                        if cell["status"] != "done")
        manifest["status"] = "done" if remaining == 0 else "running"
        with profiler.phase("checkpoint"):
            _write_manifest(path, manifest)
        if registry is not None:
            registry.counter("campaign_chunks").inc()
            registry.gauge("campaign_pending").set(remaining)

    if not chunks:
        # Nothing pending (fully carried over): still refresh the manifest
        # so its status reflects this invocation.
        manifest["status"] = "done"
        _write_manifest(path, manifest)
    if registry is not None:
        registry.gauge("campaign_pending").set(
            sum(1 for cell in manifest["cells"]
                if cell["status"] != "done"))

    return CampaignResult(
        spec=spec,
        digest=digest,
        directory=directory,
        manifest=manifest,
        warm=warm,
        cold=cold,
        carried=carried,
        wall_s=time.perf_counter() - start,
        sim_cycles=sim_cycles,
        sim_wall_s=sim_wall,
        chunks_run=chunks_run,
        profile=profiler.as_dict(),
    )
