"""Execution-engine integration: digest-addressed closed-loop runs.

An online run is an ordinary job cell whose ``JobSpec.extra`` carries a
``("control", spec)`` entry — the :class:`~repro.control.loop.ControlConfig`
canonical string — so everything built on job digests (the result store,
the serve tier, sweeps, campaigns) addresses closed-loop cells for free,
and an online cell can never collide with its offline twin.

Closed-loop cells accept two styles: ``baseline`` starts cold (no
shortcuts on the wire — the loop earns them all) and ``adaptive`` warm
starts from the first phase's offline profile.  The workload may be any
known pattern/application name or a *phased* composite,
``"phased:uniform+1Hotspot+4Hotspot@1500"`` — the canonical stressor
where no single static placement fits (see the O-series experiments).

The decision journal rides inside the result
(:attr:`RunResult.control <repro.obs.result.RunResult.control>`), so the
stored payload — and a warm replay's journal and journal digest — is the
same whichever surface computed the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.control.journal import DecisionJournal
from repro.control.loop import ControlConfig, ControlLoop
from repro.core.architectures import DesignPoint, baseline
from repro.core.online import PhasedSource
from repro.core.overlay import RFIOverlay
from repro.core.reconfig import ReconfigurationController
from repro.experiments.runner import ExperimentRunner, PreparedRun, RunResult
from repro.noc.routing import RoutingTables
from repro.noc.simulator import Simulator

#: Workload prefix marking a phase-changing composite.
PHASED_PREFIX = "phased:"

#: Cycles per phase when the spec omits ``@N``.
DEFAULT_PHASE_CYCLES = 2_000


def parse_phased_workload(workload: str) -> tuple[tuple[str, ...], int]:
    """Split a workload name into (phases, phase_cycles).

    Plain names come back as a single phase with ``phase_cycles == 0``;
    ``"phased:a+b+c@1500"`` becomes ``(("a", "b", "c"), 1500)``.
    """
    if not workload.startswith(PHASED_PREFIX):
        return (workload,), 0
    body = workload[len(PHASED_PREFIX):]
    names, _, cycles_text = body.partition("@")
    phases = tuple(p for p in (s.strip() for s in names.split("+")) if p)
    if not phases:
        raise ValueError(f"phased workload {workload!r} names no phases")
    if cycles_text:
        try:
            phase_cycles = int(cycles_text)
        except ValueError as exc:
            raise ValueError(
                f"invalid phase cycle count {cycles_text!r} in "
                f"{workload!r}") from exc
    else:
        phase_cycles = DEFAULT_PHASE_CYCLES
    if phase_cycles <= 0:
        raise ValueError("phase cycle count must be positive")
    return phases, phase_cycles


def phased_workload_name(phases, phase_cycles: int) -> str:
    """The canonical spelling of a phased workload."""
    return f"{PHASED_PREFIX}{'+'.join(phases)}@{phase_cycles}"


# -- cell construction -------------------------------------------------------

def build_control_cell(
    runner: ExperimentRunner,
    spec,
    control: ControlConfig,
    observation=None,
    stage_profile=None,
) -> tuple[DesignPoint, ControlLoop, Simulator]:
    """Build the network + closed loop for one online cell (unrun).

    Returned pieces share state: the loop is the simulator's only traffic
    source and retunes the network's overlay live.
    """
    from repro.exec.jobs import check_cell

    # Hand-built specs reach here without passing a surface's validation.
    check_cell(spec.style, spec.link_bytes, spec.workload, online=True)
    extra = dict(spec.extra)
    topo = runner.topology_for(extra.get("topology"))
    phases, phase_cycles = parse_phased_workload(spec.workload)
    aps = spec.num_access_points or runner.config.num_access_points
    seed = runner.config.traffic_seed if spec.seed is None else spec.seed
    base = baseline(spec.link_bytes, runner.params, topo)
    overlay = RFIOverlay(
        topo, topo.rf_enabled_routers(aps), base.params.rfi, adaptive=True,
    )
    controller = ReconfigurationController(
        topo, overlay, budget=control.budget,
        use_regions=control.use_regions,
    )
    if spec.style == "adaptive":
        # Warm start: the first phase's offline profile, like a
        # per-application reconfiguration at load time.
        plan = controller.reconfigure(runner.profile(phases[0], topo))
        tables = plan.tables
        initial = tuple((s.src, s.dst) for s in plan.shortcuts)
    else:
        tables = RoutingTables(topo, [])
        initial = ()
    from repro.faults import as_schedule

    design = DesignPoint(
        name=f"closed-loop-{spec.style}{aps}-{spec.link_bytes}B",
        params=base.params,
        topology=topo,
        tables=tables,
        overlay=overlay,
        faults=as_schedule(extra.get("faults")),
    )
    sources = [runner._unicast_source(name, seed, topo) for name in phases]
    source = (
        sources[0] if len(sources) == 1
        else PhasedSource(sources, phase_cycles)
    )
    loop = ControlLoop(source, controller, control, initial=initial)
    return design, loop, Simulator(
        design.new_network(), [loop], runner.config.sim,
        observation=observation, stage_profile=stage_profile,
    )


# -- engine hook -------------------------------------------------------------

def prepare_control(
    runner: ExperimentRunner,
    spec,
    observation=None,
    stage_profile=None,
) -> PreparedRun:
    """The online cell of a normalized spec, unrun.

    Reached through :meth:`ExperimentRunner.prepare` (which dispatches on
    the spec's ``("control", ...)`` extra); same caching contract as every
    other cell, and the finished result carries the decision journal in
    :attr:`RunResult.control`.
    """
    from repro.obs import MetricsRegistry, Observation

    control = ControlConfig.from_spec(dict(spec.extra)["control"])
    cacheable = observation is None
    if cacheable:
        # Control counters are part of the deliverable, so online runs are
        # always metered; the snapshot is deterministic and rides in the
        # stored payload like any observed result.
        observation = Observation(metrics=MetricsRegistry())

    def build():
        design, loop, simulator = build_control_cell(
            runner, spec, control, observation, stage_profile)
        return design, simulator, lambda: {
            "spec": control.canonical(),
            "journal": loop.journal.to_dicts(),
            "summary": control_summary(loop.journal),
        }

    return runner.cell(spec, spec, spec.workload, build, observation,
                       cacheable=cacheable, journaled=True)


def control_summary(journal: DecisionJournal) -> dict:
    """JSON-safe journal roll-up (counts, digest, charged overhead)."""
    counts = journal.counts()
    return {
        "records": len(journal),
        "applied": counts.get("applied", 0),
        "skipped": counts.get("skipped", 0),
        "counts": counts,
        "overhead_cycles": journal.overhead_cycles(),
        "journal_digest": journal.digest(),
    }


# -- user-facing wrapper -----------------------------------------------------

@dataclass(frozen=True)
class ControlRunResult:
    """One closed-loop run: the packaged result plus its decision trail."""

    result: RunResult
    journal: DecisionJournal
    control: ControlConfig
    digest: Optional[str]   # the cell's job digest (store address)

    @property
    def applied(self) -> int:
        return self.journal.counts().get("applied", 0)

    @property
    def skipped(self) -> int:
        return self.journal.counts().get("skipped", 0)

    @property
    def journal_digest(self) -> str:
        return self.journal.digest()

    def summary(self) -> dict:
        return control_summary(self.journal)


def control_spec(
    workload: str,
    *,
    style: str = "baseline",
    width: int = 16,
    seed: Optional[int] = None,
    access_points: Optional[int] = None,
    control: ControlConfig | str | None = None,
    faults=None,
    topology: Optional[str] = None,
):
    """The JobSpec addressing one online cell (extra carries the knobs).

    Validated and canonicalised by the shared cell vocabulary
    (:func:`~repro.exec.jobs.check_cell` / :func:`~repro.exec.jobs.cell_extra`),
    so the address equals the one every other surface computes for the
    same cell; raises :class:`~repro.exec.jobs.SpecError`.
    """
    from repro.exec.jobs import JobSpec, cell_extra, check_cell

    if isinstance(control, ControlConfig):
        control = control.canonical()
    check_cell(style, width, workload, online=True)
    return JobSpec(
        kind="unicast", style=style, link_bytes=width, workload=workload,
        seed=seed, num_access_points=access_points,
        extra=cell_extra(faults=faults, topology=topology,
                         control=control or ""),
    )


def run_closed_loop(
    runner: ExperimentRunner,
    workload: str,
    *,
    style: str = "baseline",
    width: int = 16,
    seed: Optional[int] = None,
    access_points: Optional[int] = None,
    control: ControlConfig | str | None = None,
    faults=None,
    topology: Optional[str] = None,
) -> ControlRunResult:
    """Run (or warm-load) one closed-loop cell on a runner."""
    result = runner.prepare(control_spec(
        workload, style=style, width=width, seed=seed,
        access_points=access_points, control=control, faults=faults,
        topology=topology,
    )).run()
    return ControlRunResult(
        result=result,
        journal=DecisionJournal.from_dicts(result.control["journal"]),
        control=ControlConfig.from_spec(result.control["spec"]),
        digest=result.provenance,
    )


def best_static_latencies(
    runner: ExperimentRunner,
    workload: str,
    *,
    width: int = 16,
    seed: Optional[int] = None,
    access_points: Optional[int] = None,
    topology: Optional[str] = None,
) -> dict[str, float]:
    """Average latency of each *static* per-phase placement on ``workload``.

    Every phase's offline-profiled adaptive design runs the full phased
    workload unchanged — the best of these is the strongest static
    competitor the closed loop must beat.  Cells are store-cached under
    the runner's config/params digest.
    """
    phases, phase_cycles = parse_phased_workload(workload)
    topo = runner.topology_for(topology)
    aps = access_points or runner.config.num_access_points
    resolved_seed = runner.config.traffic_seed if seed is None else seed
    out: dict[str, float] = {}
    for name in dict.fromkeys(phases):
        design = runner.design(
            "adaptive", width, workload=name, num_access_points=aps,
            topology=topology,
        )

        def simulate(design=design):
            sources = [
                runner._unicast_source(p, resolved_seed, topo)
                for p in phases
            ]
            source = (
                sources[0] if len(sources) == 1
                else PhasedSource(sources, phase_cycles)
            )
            return Simulator(
                design.new_network(), [source], runner.config.sim,
            ).run()

        stats = runner.cached_stats(
            "control-static",
            {
                "placement": name, "workload": workload, "width": width,
                "aps": aps, "seed": resolved_seed, "topology": topo.name,
            },
            simulate,
        )
        out[name] = stats.avg_packet_latency
    return out
