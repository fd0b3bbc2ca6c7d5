"""Experiment runner: builds design points, runs workloads, caches results.

Many figures share design points and workloads (Fig 7 is the 16 B column of
Fig 8's grid; Fig 10 replots both), so results are memoized on
(design, workload, realization) — one simulation feeds every figure that
needs it.

Memoization is two-level.  In memory, results are keyed on the cell's
normalized :class:`~repro.exec.jobs.JobSpec` (hand-built designs key on
object identity) so two designs that happen to share a name can never
alias.  When the runner is given a
:class:`~repro.exec.store.ResultStore`, every cell that is addressable as
a spec is also looked up in — and written back to — the persistent on-disk
cache, so repeated harness invocations (and parallel sweeps; see
:mod:`repro.exec.engine`) never re-simulate a cell whose inputs have not
changed.

How a spec becomes a simulator, a :class:`RunResult` and the payload stored
at its digest is decided in one place — :meth:`ExperimentRunner.prepare`
over the :meth:`ExperimentRunner.cell` skeleton — for every surface.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.core import (
    DesignPoint, RFIOverlay, adaptive_rf, adaptive_rf_multicast, baseline,
    static_rf, wire_static,
)
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.multicast import (
    MulticastAwareSource, RFRealization, UnicastExpansion, VCTRealization,
)
from repro.noc import NetworkStats, Simulator
from repro.noc.topology import TopologyProvider, build_topology, resolve_topology
from repro.obs.result import RunResult
from repro.params import DEFAULT_PARAMS, ArchitectureParams
from repro.power import NoCPowerModel
from repro.traffic import (
    APPLICATIONS, CombinedTraffic, MulticastConfig, MulticastTraffic,
    ProbabilisticTraffic, all_patterns, application_pattern,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.jobs import JobSpec
    from repro.exec.store import ResultStore
    from repro.obs import Observation
    from repro.obs.profile import StageProfile
    from repro.params import SimulationParams

__all__ = ["ExperimentRunner", "PreparedRun", "RunResult"]


@dataclasses.dataclass
class PreparedRun:
    """A built-but-unrun experiment cell.

    Either ``result`` is already set (memo or store hit — nothing to
    simulate) or ``simulator`` holds the ready cell and :meth:`finish`
    packages its statistics into a :class:`RunResult` (counting the run
    and writing the memo and the store).  :meth:`run` is both in one
    call; a caller that wants to drive the cell in slices uses
    :meth:`Simulator.start` and hands the statistics to :meth:`finish`.
    """

    result: Optional[RunResult] = None
    simulator: Optional[Simulator] = None
    package: Optional[Callable[[NetworkStats], RunResult]] = None

    def finish(self, stats: NetworkStats) -> RunResult:
        """Package the finished simulation's statistics."""
        return self.package(stats)

    def run(self) -> RunResult:
        """The cell's result, simulating first unless it was a hit.

        Idempotent: the result is kept, so a second call simulates nothing.
        """
        if self.result is None:
            self.result = self.finish(self.simulator.run())
        return self.result


class ExperimentRunner:
    """Shared context for all experiments: topology, profiles, caches."""

    def __init__(
        self,
        config: ExperimentConfig = DEFAULT_CONFIG,
        params: ArchitectureParams = DEFAULT_PARAMS,
        store: Optional["ResultStore"] = None,
    ):
        self.config = config
        self.params = params
        self.store = store
        self.topology = build_topology(params.mesh)
        self.power_model = NoCPowerModel()
        self.patterns = all_patterns(self.topology)
        self.simulations_run = 0       # real Simulator executions (not cached)
        # Per-provider context: the default provider's entries are aliases
        # of the public ``topology`` / ``patterns`` attributes.
        self._topologies: dict[str, TopologyProvider] = {
            self.topology.name: self.topology
        }
        self._patterns_by_topo: dict[str, dict] = {
            self.topology.name: self.patterns
        }
        self._profiles: dict[tuple[str, str], np.ndarray] = {}
        self._results: dict[tuple, RunResult] = {}
        self._designs: dict[tuple, DesignPoint] = {}
        self._design_keys: dict[int, tuple] = {}   # id(design) -> design key
        self._degraded: dict[tuple, DesignPoint] = {}  # (key, faults) -> point

    # -- topologies ----------------------------------------------------------

    def topology_for(self, name: Optional[str] = None) -> TopologyProvider:
        """The (cached) provider instance for a registry name.

        ``None`` means the runner's default — whatever
        ``params.mesh.provider`` selects.  Providers are built once per
        runner; every design, pattern, and profile for a given substrate
        shares the instance.
        """
        resolved = resolve_topology(name, self.params.mesh.provider)
        if resolved not in self._topologies:
            self._topologies[resolved] = build_topology(
                self.params.mesh, resolved
            )
        return self._topologies[resolved]

    def _patterns_for(self, topology: TopologyProvider) -> dict:
        if topology.name not in self._patterns_by_topo:
            self._patterns_by_topo[topology.name] = all_patterns(topology)
        return self._patterns_by_topo[topology.name]

    # -- workloads -----------------------------------------------------------

    def pattern(self, workload: str, topology: Optional[TopologyProvider] = None):
        """A probabilistic pattern or application pattern by name.

        ``topology`` selects the substrate the pattern is laid out on
        (hotspot banks, quadrant masks, and dataflow groups are all
        placement-dependent); the default is the runner's topology.
        """
        topo = topology or self.topology
        patterns = self._patterns_for(topo)
        if workload in patterns:
            return patterns[workload]
        if workload in APPLICATIONS:
            return application_pattern(topo, APPLICATIONS[workload])
        raise KeyError(f"unknown workload {workload!r}")

    def rate(self, workload: str) -> float:
        """Injection rate for a workload name (pattern or application)."""
        if workload in APPLICATIONS:
            return APPLICATIONS[workload].rate
        return self.config.rate_for(workload)

    def profile(
        self, workload: str, topology: Optional[TopologyProvider] = None,
    ) -> np.ndarray:
        """Profiled communication-frequency matrix F(x, y) for a workload.

        Profiles are per-substrate (the matrix is indexed by router id),
        cached on (topology, workload).
        """
        topo = topology or self.topology
        key = (topo.name, workload)
        if key not in self._profiles:
            source = ProbabilisticTraffic(
                topo, self.pattern(workload, topo), self.rate(workload),
                seed=self.config.seed,
            )
            self._profiles[key] = source.collect_profile(
                self.config.profile_cycles
            )
        return self._profiles[key]

    def _unicast_source(
        self,
        workload: str,
        seed: Optional[int] = None,
        topology: Optional[TopologyProvider] = None,
    ):
        topo = topology or self.topology
        return ProbabilisticTraffic(
            topo, self.pattern(workload, topo), self.rate(workload),
            seed=self.config.traffic_seed if seed is None else seed,
        )

    def _multicast_workload(
        self,
        locality_percent: int,
        topology: Optional[TopologyProvider] = None,
    ):
        topo = topology or self.topology
        return CombinedTraffic([
            ProbabilisticTraffic(
                topo, self._patterns_for(topo)["uniform"],
                self.config.base_rate_with_multicast,
                seed=self.config.traffic_seed,
            ),
            MulticastTraffic(
                topo,
                MulticastConfig(
                    rate=self.config.multicast_rate,
                    locality_percent=locality_percent,
                ),
                seed=self.config.traffic_seed,
            ),
        ])

    # -- design points ----------------------------------------------------------

    def design(
        self,
        style: str,
        link_bytes: int,
        workload: Optional[str] = None,
        num_access_points: Optional[int] = None,
        adaptive_routing: bool = False,
        topology: Optional[str] = None,
    ) -> DesignPoint:
        """Build (and cache) a design point.

        ``style``: 'baseline', 'static', 'wire', 'adaptive', 'adaptive+mc',
        or 'mc-only'.  Adaptive styles require ``workload`` (the profile the
        overlay reconfigures for).  ``topology`` names a registered
        provider to build on (None — the runner's default substrate).
        """
        aps = num_access_points or self.config.num_access_points
        if style not in ("adaptive", "adaptive+mc"):
            workload = None            # non-profiled styles ignore the profile
        topo = self.topology_for(topology)
        key = (style, link_bytes, workload, aps, adaptive_routing, topo.name)
        if key in self._designs:
            return self._designs[key]
        if style == "baseline":
            point = baseline(link_bytes, self.params, topo)
        elif style == "static":
            point = static_rf(link_bytes, self.params, topo)
        elif style == "wire":
            point = wire_static(link_bytes, self.params, topo)
        elif style == "adaptive":
            point = adaptive_rf(
                self.profile(workload, topo), link_bytes, aps,
                self.params, topo,
                adaptive_routing=adaptive_routing,
            )
        elif style == "adaptive+mc":
            point = adaptive_rf_multicast(
                self.profile(workload, topo), link_bytes, aps,
                self.params, topo,
            )
        elif style == "mc-only":
            point = self._mc_only_design(link_bytes, aps, topo)
        else:
            raise ValueError(f"unknown design style {style!r}")
        self._designs[key] = point
        self._design_keys[id(point)] = key
        return point

    def degraded(self, design: DesignPoint, faults) -> DesignPoint:
        """``design`` re-planned around a fault schedule (cached).

        ``faults`` is a spec string or :class:`FaultSchedule`; the degraded
        tables are built once per (design, schedule) pair.  With an empty
        schedule the original design is returned unchanged.
        """
        from repro.faults import as_schedule, degraded_design

        schedule = as_schedule(faults)
        if schedule is None:
            return design
        # Hand-built designs key on identity (never shared, never aliased).
        key = (self._design_keys.get(id(design), id(design)),
               schedule.canonical())
        if key not in self._degraded:
            self._degraded[key] = degraded_design(design, schedule)
        return self._degraded[key]

    def _mc_only_design(
        self,
        link_bytes: int,
        aps: int,
        topology: Optional[TopologyProvider] = None,
    ) -> DesignPoint:
        """Baseline mesh + the multicast band on every access-point Rx."""
        topo = topology or self.topology
        point = baseline(link_bytes, self.params, topo)
        overlay = RFIOverlay(
            topo, topo.rf_enabled_routers(aps),
            point.params.rfi, adaptive=True,
        )
        overlay.configure_multicast(topo.central_bank(0))
        return dataclasses.replace(
            point, name=f"mc-only-{link_bytes}B", overlay=overlay
        )

    # -- job addressing and the persistent store -----------------------------

    def spec_for(
        self,
        design: DesignPoint,
        workload: str,
        *,
        kind: str = "unicast",
        seed: Optional[int] = None,
        **fields,
    ) -> Optional["JobSpec"]:
        """The JobSpec addressing a cell, or None for hand-built designs.

        The adapter for callers that hold a design object (figures,
        ablations, ``prepare_unicast`` / ``prepare_multicast``); a caller
        that holds a spec hands it to :meth:`prepare` and is addressed by
        exactly that spec.
        """
        key = self._design_keys.get(id(design))
        if key is None:
            return None
        from repro.exec import JobSpec, normalize_spec

        style, link_bytes, design_workload, aps, adaptive, topo_name = key
        if topo_name != self.params.mesh.provider:
            # A per-job topology request rides in ``extra`` (like faults)
            # so it reaches the digest; designs on the params' own
            # substrate add nothing, keeping historical addresses intact.
            merged = dict(fields.pop("extra", ()))
            merged["topology"] = topo_name
            fields["extra"] = tuple(sorted(merged.items()))
        return normalize_spec(
            JobSpec(
                kind=kind, style=style, link_bytes=link_bytes,
                workload=workload, seed=seed, num_access_points=aps,
                adaptive_routing=adaptive, design_workload=design_workload,
                **fields,
            ),
            self.config,
        )

    def _digest_for(self, spec: Optional["JobSpec"]) -> Optional[str]:
        """The store address (and provenance digest) of a spec, or None."""
        if spec is None:
            return None
        from repro.exec import job_digest

        return job_digest(spec, self.config, self.params)

    def _store_load(self, spec: Optional["JobSpec"]) -> Optional[dict]:
        if self.store is None or spec is None:
            return None
        return self.store.load(self._digest_for(spec))

    def _store_save(self, spec: Optional["JobSpec"], payload: dict) -> None:
        if self.store is None or spec is None:
            return
        from repro.experiments.export import jsonable

        self.store.save(
            self._digest_for(spec), payload, meta={"spec": jsonable(spec)},
        )

    # -- the cell pipeline ----------------------------------------------------

    def prepare(
        self,
        spec: "JobSpec",
        observation: Optional["Observation"] = None,
        stage_profile: Optional["StageProfile"] = None,
    ) -> PreparedRun:
        """Build the cell a spec addresses — the only spec → cell path.

        The spec is normalized, dispatched on its kind (a ``("control",
        ...)`` extra makes a unicast cell an online one), its design is
        built once, and the cell is addressed **by the spec it was
        handed**: the result's provenance is that spec's job digest by
        construction.  Memo and store hits come back as an immediate
        ``result``; a miss returns the ready :class:`Simulator`.  An
        ``observation`` attaches metrics/tracing and forces a fresh run
        that touches neither memo nor store; a ``stage_profile`` times the
        kernel per pipeline stage (only when the cell actually simulates).
        """
        from repro.exec import normalize_spec

        spec = normalize_spec(spec, self.config)
        extra = dict(spec.extra)
        if spec.kind == "unicast" and extra.get("control") is not None:
            from repro.control.run import prepare_control

            return prepare_control(self, spec, observation, stage_profile)
        if spec.kind not in ("unicast", "multicast"):
            raise ValueError(f"cannot execute job kind {spec.kind!r}")
        design = self.design(
            spec.style, spec.link_bytes, workload=spec.design_workload,
            num_access_points=spec.num_access_points,
            adaptive_routing=spec.adaptive_routing,
            topology=extra.get("topology"),
        )
        if spec.kind == "multicast":
            return self._multicast_cell(
                spec, design, spec.realization, spec.locality_percent,
                observation, stage_profile,
            )
        return self._unicast_cell(
            spec, design, spec.workload, spec.seed, extra.get("faults"),
            observation, stage_profile,
        )

    def cell(
        self,
        key,
        spec: Optional["JobSpec"],
        label: str,
        build: Callable[[], tuple],
        observation: Optional["Observation"],
        *,
        cacheable: bool,
        journaled: bool = False,
    ) -> PreparedRun:
        """The one cell skeleton: memo → store → ``build()`` → package.

        ``key`` is the memo key (the normalized spec, or an identity tuple
        for a hand-built design, whose ``spec`` is None and which is never
        persisted); ``label`` the workload name the result reports.
        ``build()`` runs only on a miss and returns ``(design, simulator,
        control)`` — ``control`` is None, or a callable giving an online
        cell's :attr:`RunResult.control` once the run has finished.  The
        returned ``package`` counts the run, packages the statistics and —
        for a ``cacheable`` cell — memoizes the result and saves its
        :func:`~repro.exec.serialize.encode_result` payload at the spec's
        digest: the same payload whichever surface computed the cell.
        A ``journaled`` (online) cell treats an entry without a journal
        (written before the journal rode in the result) as a miss.
        """
        from repro.exec import decode_result, encode_result

        if cacheable:
            result = self._results.get(key)
            if result is None:
                payload = self._store_load(spec)
                if payload is not None:
                    result = decode_result(payload)
                    if result.provenance is None:   # predates provenance
                        result = result.with_provenance(self._digest_for(spec))
            if result is not None and not (journaled and result.control is None):
                self._results[key] = result
                return PreparedRun(result=result)
        design, simulator, control = build()

        def package(stats: NetworkStats) -> RunResult:
            self.simulations_run += 1
            result = RunResult(
                design=design.name,
                workload=label,
                avg_latency=stats.avg_packet_latency,
                avg_flit_latency=stats.avg_flit_latency,
                power=self.power_model.power(design, stats),
                area=self.power_model.area(design),
                stats=stats,
                metrics=(
                    observation.snapshot() if observation is not None else None
                ),
                provenance=self._digest_for(spec),
                control=control() if control is not None else None,
            )
            if cacheable:
                self._store_save(spec, encode_result(result))
                self._results[key] = result
            return result

        return PreparedRun(simulator=simulator, package=package)

    # -- running ------------------------------------------------------------------

    def run_unicast(
        self,
        design: DesignPoint,
        workload: str,
        seed: Optional[int] = None,
        observation: Optional["Observation"] = None,
        faults=None,
        stage_profile: Optional["StageProfile"] = None,
    ) -> RunResult:
        """Simulate a probabilistic/application workload on a design.

        ``seed`` overrides the config's traffic seed (repetition studies);
        the default is the shared :attr:`ExperimentConfig.traffic_seed`.
        An ``observation`` forces a fresh (uncached, unmemoized) run with
        metrics/tracing attached; its snapshot rides in the result.
        ``faults`` (a spec string or :class:`~repro.faults.FaultSchedule`)
        degrades the design first; the schedule's canonical form is folded
        into the memo key and store digest, so zero-fault cells keep their
        historical addresses and faulted cells get their own.
        """
        return self.prepare_unicast(
            design, workload, seed=seed, observation=observation,
            faults=faults, stage_profile=stage_profile,
        ).run()

    def prepare_unicast(
        self,
        design: DesignPoint,
        workload: str,
        seed: Optional[int] = None,
        observation: Optional["Observation"] = None,
        faults=None,
        stage_profile: Optional["StageProfile"] = None,
    ) -> PreparedRun:
        """Build a unicast cell without running it (see :class:`PreparedRun`).

        Same caching contract as :meth:`prepare`, for a caller that holds
        the design object: the cell is addressed through :meth:`spec_for`.
        """
        from repro.faults import as_schedule

        schedule = as_schedule(faults)
        seed = self.config.traffic_seed if seed is None else seed
        spec = self.spec_for(
            design, workload, seed=seed,
            extra=(("faults", schedule.canonical()),) if schedule else (),
        )
        return self._unicast_cell(spec, design, workload, seed, schedule,
                                  observation, stage_profile)

    def _unicast_cell(self, spec, design, workload, seed, faults,
                      observation, stage_profile) -> PreparedRun:
        # Only a hand-built design has no spec, and it arrives through
        # prepare_unicast, where ``faults`` is already a schedule (or None).
        key = spec or ("unicast", id(design), workload, seed,
                       faults and faults.canonical())

        def build():
            point = self.degraded(design, faults)
            return point, Simulator(
                point.new_network(),
                [self._unicast_source(workload, seed, point.topology)],
                self.config.sim, observation=observation,
                stage_profile=stage_profile,
            ), None

        return self.cell(key, spec, workload, build, observation,
                         cacheable=observation is None)

    def run_multicast(
        self,
        design: DesignPoint,
        realization_style: str,
        locality_percent: int,
        observation: Optional["Observation"] = None,
        stage_profile: Optional["StageProfile"] = None,
    ) -> RunResult:
        """Simulate the Section 5.2 multicast workload on a design.

        ``realization_style``: 'unicast', 'vct', or 'rf'.  An
        ``observation`` forces a fresh run with metrics/tracing attached.
        """
        return self.prepare_multicast(
            design, realization_style, locality_percent,
            observation=observation, stage_profile=stage_profile,
        ).run()

    def prepare_multicast(
        self,
        design: DesignPoint,
        realization_style: str,
        locality_percent: int,
        observation: Optional["Observation"] = None,
        stage_profile: Optional["StageProfile"] = None,
    ) -> PreparedRun:
        """Build a multicast cell without running it (see
        :meth:`prepare_unicast` for the contract)."""
        spec = self.spec_for(
            design, f"multicast-{locality_percent}", kind="multicast",
            realization=realization_style, locality_percent=locality_percent,
        )
        return self._multicast_cell(spec, design, realization_style,
                                    locality_percent, observation,
                                    stage_profile)

    def _multicast_cell(self, spec, design, realization_style,
                        locality_percent, observation,
                        stage_profile) -> PreparedRun:
        key = spec or ("mc", id(design), realization_style, locality_percent)

        def build():
            network = design.new_network()
            if realization_style == "unicast":
                realization = UnicastExpansion(network)
            elif realization_style == "vct":
                realization = VCTRealization(network)
            elif realization_style == "rf":
                realization = RFRealization(
                    network, self._rf_receivers(design),
                    epoch_cycles=self.config.multicast_epoch_cycles,
                )
            else:
                raise ValueError(
                    f"unknown realization {realization_style!r}")
            source = MulticastAwareSource(
                self._multicast_workload(locality_percent, design.topology),
                realization,
            )
            return design, Simulator(
                network, [source], self.config.sim,
                observation=observation, stage_profile=stage_profile,
            ), None

        return self.cell(key, spec, f"multicast-{locality_percent}", build,
                         observation, cacheable=observation is None)

    def probe_unicast(
        self,
        design: DesignPoint,
        workload: str,
        rate: float,
        sim: Optional["SimulationParams"] = None,
    ) -> NetworkStats:
        """One measurement at an explicit injection rate (saturation probes).

        ``sim`` overrides the config's windows (probes use trimmed ones);
        the override is folded into the job digest so cached probes are
        only reused under identical windows.
        """
        sim = sim or self.config.sim
        spec = self.spec_for(
            design, workload, kind="probe", rate=rate,
            extra=(("sim", f"{sim.warmup_cycles}/{sim.measure_cycles}"
                           f"/{sim.drain_cycles}"),),
        )
        return self._cached_simulation(spec, lambda: Simulator(
            design.new_network(),
            [ProbabilisticTraffic(
                design.topology, self.pattern(workload, design.topology),
                rate, seed=self.config.traffic_seed,
            )],
            sim,
        ).run())

    def cached_stats(
        self,
        tag: str,
        fields: dict,
        simulate: Callable[[], NetworkStats],
    ) -> NetworkStats:
        """Store-backed stats for a hand-built cell (the ablation drivers).

        ``tag`` and ``fields`` must uniquely address the cell among all
        callers; the shared config and params are folded into the digest
        automatically, so changing either invalidates every cached cell.
        """
        from repro.exec import JobSpec

        spec = JobSpec(
            kind="stats", style=tag,
            extra=tuple(sorted((k, str(v)) for k, v in fields.items())),
        )
        return self._cached_simulation(spec, simulate)

    def _cached_simulation(
        self,
        spec: Optional["JobSpec"],
        simulate: Callable[[], NetworkStats],
    ) -> NetworkStats:
        from repro.exec import decode_stats, encode_stats

        payload = self._store_load(spec)
        if payload is not None:
            return decode_stats(payload["stats"])
        stats = simulate()
        self.simulations_run += 1
        self._store_save(spec, {"stats": encode_stats(stats)})
        return stats

    def _rf_receivers(self, design: DesignPoint) -> list[int]:
        if design.overlay is None or design.overlay.multicast_band is None:
            raise ValueError(f"{design.name} has no multicast band configured")
        return list(design.overlay.multicast_receivers)
