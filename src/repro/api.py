"""One coherent run API: ``simulate()``, ``sweep()``, ``compare()``.

One surface over ``Simulator``, ``ExperimentRunner`` and ``run_sweep``,
returning the unified :class:`~repro.obs.result.RunResult` everywhere::

    import repro
    result = repro.simulate("adaptive", "1Hotspot", trace_events="ev.jsonl")
    result.metrics["rf_band_occupancy"]       # per-band utilization
    report = repro.sweep(["baseline", "static"], [16, 8], ["uniform"])
    report.results                             # list[RunResult]
    comparison = repro.compare(["baseline", "static"], "uniform")
    comparison.normalized_latency()            # vs the first design

The lower layers stay public (``Simulator.run`` returns the bare stats,
``ExperimentRunner.prepare(spec).run()`` is the one cell pipeline every
surface shares); new code (and the CLI) should come through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.exec.engine import ProgressFn, SweepReport, run_sweep
from repro.exec.jobs import cell_extra, check_cell, sweep_grid
from repro.exec.store import ResultStore
from repro.experiments.config import ExperimentConfig, resolve_config
from repro.experiments.runner import ExperimentRunner
from repro.obs import EventTracer, MetricsRegistry, Observation
from repro.obs.result import RunResult
from repro.params import DEFAULT_PARAMS, ArchitectureParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.runner import CampaignResult
    from repro.campaign.spec import CampaignSpec
    from repro.faults import FaultSchedule
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.client import ServeClient

__all__ = ["Comparison", "RunResult", "campaign", "compare", "simulate",
           "sweep"]


def _resolve_store(store: Union[ResultStore, str, Path, None]) -> Optional[ResultStore]:
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)


def _control_request(online: Union[bool, str, None]) -> Optional[str]:
    """``online=`` as a control spec: None offline, ``""`` the defaults."""
    if online is None or online is False:
        return None
    return "" if online is True else online


def simulate(
    design: str = "baseline",
    workload: str = "uniform",
    *,
    width: int = 16,
    access_points: Optional[int] = None,
    adaptive_routing: bool = False,
    seed: Optional[int] = None,
    faults: Union[str, "FaultSchedule", None] = None,
    topology: Optional[str] = None,
    fast: bool = False,
    kernel: Optional[str] = None,
    config: Optional[ExperimentConfig] = None,
    params: ArchitectureParams = DEFAULT_PARAMS,
    metrics: bool = True,
    trace_events: Union[str, Path, bool, None] = None,
    trace_buffer: Optional[int] = None,
    observation: Optional[Observation] = None,
    store: Union[ResultStore, str, Path, None] = None,
    online: Union[bool, str, None] = None,
) -> RunResult:
    """Simulate one (design, workload) cell; return the unified result.

    ``design`` is a style name ('baseline', 'static', 'wire', 'adaptive',
    'adaptive+mc', 'mc-only'); ``workload`` a pattern or application name.
    ``metrics`` attaches a :class:`MetricsRegistry` (snapshot rides in
    ``result.metrics``); ``trace_events`` additionally enables the
    cycle-level tracer — pass a path to also write the JSONL file, or
    ``True`` to keep events in memory only (reachable via ``observation``).
    Observed runs always simulate fresh; pass ``metrics=False,
    trace_events=None`` to go through the memo/result store instead.
    ``faults`` injects a fault schedule (spec string like
    ``"band:3;link:12-13@100-500"`` or a
    :class:`~repro.faults.FaultSchedule`): the design degrades gracefully
    around structural faults and dodges transient ones at runtime — see
    ``docs/faults.md``.
    ``kernel`` selects the cycle-execution kernel (``"batch"`` /
    ``"reference"``); the two are bit-identical (see
    :mod:`repro.noc.kernel`), so this never changes results, caching, or
    provenance — only wall-clock time.
    ``topology`` selects the substrate provider (a registered name; see
    :mod:`repro.noc.topology`); ``None`` and ``"mesh"`` keep the default
    mesh and its historical result addresses, any other provider
    simulates a genuinely different network.
    ``online`` turns the cell into a *closed-loop* run: the
    :mod:`repro.control` plane re-selects shortcuts live against the
    streamed traffic profile.  Pass ``True`` for the default
    :class:`~repro.control.loop.ControlConfig` or a spec string like
    ``"epoch=600,hysteresis=0.03"``; ``design`` must then be
    ``"baseline"`` (cold start) or ``"adaptive"`` (profile warm start),
    and ``workload`` may be a phased composite
    (``"phased:uniform+1Hotspot@2000"``).  Online runs are always
    metered and store their decision journal alongside the result; use
    :func:`repro.control.run_closed_loop` to get the journal itself.
    A name outside the cell vocabulary (design, width, workload, topology,
    fault or control spec) raises :class:`~repro.exec.jobs.SpecError`
    before anything is built.
    """
    control = _control_request(online)
    check_cell(design, width, workload, online=control is not None)
    cell_extra(faults=faults, topology=topology, control=control)
    resolved_config = resolve_config(config, fast=fast, kernel=kernel)
    runner = ExperimentRunner(
        resolved_config, params, store=_resolve_store(store)
    )
    if control is not None:
        if trace_events:
            raise ValueError(
                "event tracing is not supported for online runs")
        from repro.control import run_closed_loop

        return run_closed_loop(
            runner, workload, style=design, width=width, seed=seed,
            access_points=access_points, control=control,
            faults=faults, topology=topology,
        ).result
    design_point = runner.design(
        design, width, workload=workload,
        num_access_points=access_points, adaptive_routing=adaptive_routing,
        topology=topology,
    )
    if observation is None and (metrics or trace_events):
        tracer = None
        if trace_events:
            capacity = (
                trace_buffer or resolved_config.sim.trace_buffer_events
            )
            tracer = EventTracer(capacity)
        observation = Observation(
            metrics=MetricsRegistry() if metrics else None, tracer=tracer,
        )
    result = runner.run_unicast(
        design_point, workload, seed=seed, observation=observation,
        faults=faults,
    )
    if (
        observation is not None
        and observation.tracer is not None
        and not isinstance(trace_events, bool)
        and trace_events is not None
    ):
        observation.tracer.write_jsonl(trace_events)
    return result


def sweep(
    styles: Sequence[str],
    widths: Sequence[int] = (16,),
    workloads: Sequence[str] = ("uniform",),
    *,
    jobs: int = 1,
    seeds: Sequence[Optional[int]] = (None,),
    adaptive_routing: bool = False,
    faults: Union[str, "FaultSchedule", None] = None,
    topology: Optional[str] = None,
    fast: bool = False,
    kernel: Optional[str] = None,
    config: Optional[ExperimentConfig] = None,
    params: ArchitectureParams = DEFAULT_PARAMS,
    store: Union[ResultStore, str, Path, None] = None,
    progress: Optional[ProgressFn] = None,
    trace_dir: Union[str, Path, None] = None,
    stage_profile: bool = False,
    online: Union[bool, str, None] = None,
) -> SweepReport:
    """Run the (styles x widths x workloads x seeds) grid.

    Fans out over ``jobs`` worker processes through the execution engine;
    ``report.results`` is a list of the same :class:`RunResult` type
    :func:`simulate` returns, in deterministic grid order, and
    ``report.summary()`` carries cache and phase-profile telemetry.
    ``trace_dir`` writes one JSONL event trace per cell (and forces every
    cell to simulate fresh, bypassing ``store``).  ``faults`` applies one
    fault schedule (spec string or :class:`~repro.faults.FaultSchedule`)
    to every cell in the grid.  ``kernel`` selects the cycle-execution
    kernel for every cell; results and store addresses are identical
    either way (the kernel never enters a job digest).  ``topology``
    runs every cell on the named substrate provider (non-mesh providers
    fork the result addresses — see :func:`~repro.exec.jobs.sweep_grid`).
    ``online`` makes every cell a closed-loop control-plane run (``True``
    for defaults or a :class:`~repro.control.loop.ControlConfig` spec
    string); styles are then restricted to ``baseline``/``adaptive`` and
    the control spec joins every cell's digest.
    """
    specs = sweep_grid(
        styles, widths, workloads,
        adaptive_routing=adaptive_routing, seeds=seeds, faults=faults,
        topology=topology, control=_control_request(online),
    )
    return run_sweep(
        specs,
        config=resolve_config(config, fast=fast, kernel=kernel),
        params=params,
        store=_resolve_store(store),
        jobs=jobs,
        progress=progress,
        trace_dir=trace_dir,
        stage_profile=stage_profile,
    )


def campaign(
    spec: Union["CampaignSpec", str, Path, dict],
    *,
    jobs: int = 1,
    config: Optional[ExperimentConfig] = None,
    params: ArchitectureParams = DEFAULT_PARAMS,
    store: Union[ResultStore, str, Path, None] = None,
    directory: Union[str, Path, None] = None,
    client: Optional["ServeClient"] = None,
    fresh: bool = False,
    max_chunks: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    registry: Optional["MetricsRegistry"] = None,
) -> "CampaignResult":
    """Run (or resume) a declarative scenario campaign.

    ``spec`` is a :class:`~repro.campaign.spec.CampaignSpec`, a plain
    mapping of its fields, the path to a ``.toml``/``.json`` spec file,
    or the name of a committed campaign
    (:data:`repro.experiments.campaigns.NAMED_CAMPAIGNS`).  The campaign
    expands to digest-addressed cells, executes cold cells in bounded
    checkpointed chunks (through the local sweep engine, or a running
    ``repro serve`` when ``client`` is given), and returns one
    :class:`~repro.campaign.runner.CampaignResult` carrying the manifest,
    warm/cold telemetry and the Pareto frontier (``.pareto()``).  A
    killed campaign re-invoked with the same arguments resumes with zero
    recomputation — see ``docs/campaigns.md``.
    """
    from repro.campaign.runner import run_campaign
    from repro.experiments.campaigns import resolve_campaign

    return run_campaign(
        resolve_campaign(spec), config=config, params=params, store=store,
        directory=directory, jobs=jobs, client=client, fresh=fresh,
        max_chunks=max_chunks, progress=progress, registry=registry,
    )


@dataclass(frozen=True)
class Comparison:
    """Several designs measured on one workload, first design = baseline."""

    workload: str
    results: tuple[RunResult, ...]

    def __iter__(self):
        return iter(self.results)

    @property
    def baseline(self) -> RunResult:
        """The reference design (first in the requested order)."""
        return self.results[0]

    def by_design(self) -> dict[str, RunResult]:
        """Results keyed by design name, in requested order."""
        return {result.design: result for result in self.results}

    def normalized_latency(self) -> dict[str, float]:
        """Each design's average latency relative to the baseline's."""
        ref = self.baseline.avg_latency
        return {r.design: r.avg_latency / ref for r in self.results}

    def normalized_power(self) -> dict[str, float]:
        """Each design's total power relative to the baseline's."""
        ref = self.baseline.total_power_w
        return {r.design: r.total_power_w / ref for r in self.results}

    def summary(self) -> dict:
        """JSON-safe comparison table."""
        return {
            "workload": self.workload,
            "baseline": self.baseline.design,
            "designs": [r.summary() for r in self.results],
            "normalized_latency": self.normalized_latency(),
        }


def compare(
    designs: Sequence[Union[str, tuple[str, int]]],
    workload: str = "uniform",
    *,
    width: int = 16,
    **kwargs,
) -> Comparison:
    """Measure several designs on one workload under identical settings.

    ``designs`` entries are style names or (style, width) pairs; remaining
    keyword arguments are forwarded to :func:`simulate`.  The first design
    is the normalization baseline.
    """
    results = []
    for entry in designs:
        style, entry_width = (
            entry if isinstance(entry, tuple) else (entry, width)
        )
        results.append(
            simulate(style, workload, width=entry_width, **kwargs)
        )
    return Comparison(workload=workload, results=tuple(results))
