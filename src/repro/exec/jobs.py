"""Addressable experiment jobs: frozen specs with stable content digests.

Every experiment cell the harness can run — a (design, workload, seed)
unicast point, a multicast comparison, a saturation probe, an ablation
measurement — is described by a :class:`JobSpec`: a frozen dataclass of
plain values.  Together with the :class:`~repro.experiments.config.ExperimentConfig`
and :class:`~repro.params.ArchitectureParams` it runs under, a spec has a
stable SHA-256 *digest*; the digest is the address of the cell's result in
the persistent :class:`~repro.exec.store.ResultStore` and changes whenever
any input that could change the result changes (any spec field, any config
knob, any architecture parameter).

This module is also the single owner of the *cell vocabulary*: which
names a cell may use (:data:`DESIGN_STYLES`, :data:`LINK_WIDTHS`,
:data:`CONTROL_STYLES`, :func:`known_workloads`, checked by
:func:`check_cell`), how its per-cell requests — faults, topology, online
control — become ``JobSpec.extra`` (:func:`cell_extra`), and which
defaults are stripped so historical digests survive
(:func:`stable_digest`).  The CLI, ``repro.api``, the serve protocol,
campaign specs and ``repro.control`` are type-checking adapters onto these
functions, so no two surfaces can address one cell differently.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.export import jsonable
from repro.params import ArchitectureParams

#: The design styles a cell may name.
DESIGN_STYLES = ("baseline", "static", "wire", "adaptive", "adaptive+mc",
                 "mc-only")

#: Design styles whose shortcut selection needs a profiled workload.
PROFILED_STYLES = ("adaptive", "adaptive+mc")

#: Styles an online (closed-loop) cell accepts: ``baseline`` starts cold,
#: ``adaptive`` warm-starts from the first phase's offline profile.
CONTROL_STYLES = ("baseline", "adaptive")

#: Mesh link widths the parameter tables model (bytes/cycle).
LINK_WIDTHS = (16, 8, 4)


class SpecError(ValueError):
    """A cell names something outside the vocabulary.

    Every surface (CLI, ``repro.api``, serve, campaigns, ``repro.control``)
    validates through :func:`check_cell` / :func:`cell_extra` and re-raises
    this as its own error type with the message unchanged.
    """


def known_workloads() -> tuple[str, ...]:
    """Every base workload name a cell may ask for (patterns + applications)."""
    from repro.traffic import APPLICATIONS, PATTERN_NAMES

    return tuple(PATTERN_NAMES) + tuple(APPLICATIONS)


def check_cell(style, width, workload, *, online: bool) -> None:
    """Raise :class:`SpecError` unless the cell's names are all known.

    ``online`` says whether the cell runs closed-loop: online cells are
    restricted to :data:`CONTROL_STYLES`, and only they may name a phased
    composite workload (``"phased:a+b@N"``) — a phase change means nothing
    to a static placement's digest-addressed, single-profile run.
    """
    if style not in DESIGN_STYLES:
        raise SpecError(
            f"unknown design {style!r}; one of {list(DESIGN_STYLES)}")
    if online and style not in CONTROL_STYLES:
        raise SpecError(
            f"online runs accept designs {list(CONTROL_STYLES)}, "
            f"got {style!r}")
    if width not in LINK_WIDTHS:
        raise SpecError(
            f"width must be one of {list(LINK_WIDTHS)} (bytes/cycle), "
            f"got {width!r}")
    names = known_workloads()
    if workload in names:
        return
    from repro.control.run import PHASED_PREFIX, parse_phased_workload

    if not (isinstance(workload, str) and workload.startswith(PHASED_PREFIX)):
        raise SpecError(f"unknown workload {workload!r}")
    if not online:
        raise SpecError(
            f"phased workload {workload!r} requires an online "
            "(closed-loop) run")
    try:
        phases, _ = parse_phased_workload(workload)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    unknown = [phase for phase in phases if phase not in names]
    if unknown:
        raise SpecError(f"unknown workloads {unknown} in {workload!r}")


def cell_extra(*, faults=None, topology: Optional[str] = None,
               control: Optional[str] = None) -> tuple[tuple[str, str], ...]:
    """The per-cell requests of one cell, canonicalised into ``JobSpec.extra``.

    Each request joins the digest in canonical form, so equal cells share
    one address whichever surface spelled them:

    * ``control`` — a :class:`~repro.control.loop.ControlConfig` spec
      string (``""`` for defaults) makes the cell a closed-loop online run;
      ``None`` is the offline cell, so an online cell can never collide
      with its offline twin;
    * ``faults`` — a fault-spec string or
      :class:`~repro.faults.FaultSchedule`; ``None`` / ``""`` are the
      fault-free, digest-stable spelling.  A truthy spec that names no
      faults (e.g. ``";;"``) is almost certainly a caller mistake — running
      it silently fault-free would mis-address the cell — so it is refused;
    * ``topology`` — a registered provider name; the default-mesh request
      is dropped so mesh cells keep their historical digests.

    Raises :class:`SpecError` on anything unparseable or unknown.
    """
    fields: list[tuple[str, str]] = []
    if control is not None:
        from repro.control.loop import ControlConfig

        try:
            config = ControlConfig.from_spec(control)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        fields.append(("control", config.canonical()))
    if faults:
        from repro.faults import as_schedule

        try:
            schedule = as_schedule(faults)
        except (ValueError, TypeError, ArithmeticError) as exc:
            # ArithmeticError: an mtbf spec with inf/0 rates divides by zero.
            raise SpecError(f"invalid fault spec {faults!r}: {exc}") from exc
        if schedule is None:
            raise SpecError(
                f"fault spec {faults!r} names no faults; pass None (or \"\") "
                "for a fault-free run")
        fields.append(("faults", schedule.canonical()))
    if topology is not None:
        from repro.noc.topology import DEFAULT_TOPOLOGY, TOPOLOGIES

        if topology not in TOPOLOGIES:
            raise SpecError(
                f"unknown topology {topology!r}; one of {sorted(TOPOLOGIES)}")
        if topology != DEFAULT_TOPOLOGY:
            fields.append(("topology", topology))
    return tuple(sorted(fields))


@dataclass(frozen=True)
class JobSpec:
    """One addressable experiment cell.

    ``kind`` selects the run recipe:

    * ``'unicast'`` — :meth:`ExperimentRunner.run_unicast` of ``workload``
      on the (``style``, ``link_bytes``) design;
    * ``'multicast'`` — :meth:`ExperimentRunner.run_multicast` with
      ``realization`` at ``locality_percent``;
    * ``'probe'`` — a single fixed-``rate`` measurement (saturation search);
    * ``'stats'`` — a hand-addressed ablation cell, identified by ``style``
      (used as a tag) and ``extra``.
    """

    kind: str = "unicast"
    style: str = "baseline"
    link_bytes: int = 16
    workload: str = "uniform"
    seed: Optional[int] = None              # traffic seed (None -> config's)
    num_access_points: Optional[int] = None  # None -> config's
    adaptive_routing: bool = False
    design_workload: Optional[str] = None   # profile the design tunes for
    realization: Optional[str] = None       # multicast: 'unicast'|'vct'|'rf'
    locality_percent: Optional[int] = None
    rate: Optional[float] = None            # probe injection-rate override
    extra: tuple[tuple[str, str], ...] = () # free-form addressing fields

    def describe(self) -> str:
        """Short human-readable label for progress output."""
        parts = [self.kind, f"{self.style}-{self.link_bytes}B", self.workload]
        topology = dict(self.extra).get("topology")
        if topology:
            parts.append(f"on:{topology}")
        if self.realization:
            parts.append(f"{self.realization}@{self.locality_percent}%")
        if self.rate is not None:
            parts.append(f"rate={self.rate:g}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return " ".join(parts)


def normalize_spec(spec: JobSpec, config: ExperimentConfig) -> JobSpec:
    """Resolve config-defaulted fields so equal cells get equal digests.

    A spec with ``seed=None`` under ``traffic_seed=5`` is the same cell as
    one with ``seed=5``; normalizing before digesting keeps the store from
    holding duplicate entries for them.
    """
    changes = {}
    if spec.seed is None:
        changes["seed"] = config.traffic_seed
    if spec.num_access_points is None:
        changes["num_access_points"] = config.num_access_points
    if spec.design_workload is None and spec.style in PROFILED_STYLES:
        changes["design_workload"] = spec.workload
    return replace(spec, **changes) if changes else spec


def stable_digest(
    config: ExperimentConfig,
    params: ArchitectureParams,
    *,
    topology: Optional[str] = None,
    **subject,
) -> str:
    """SHA-256 over canonical JSON of ``subject`` + config + params.

    The one place the digest-neutral fields are stripped, shared by
    :func:`job_digest` and :meth:`CampaignSpec.digest
    <repro.campaign.spec.CampaignSpec.digest>`:

    * the simulation *kernel* — both kernels are bit-identical by contract
      (see :mod:`repro.noc.kernel`), so the kernel choice must never fork
      the result cache, and stripping it keeps every pre-kernel store
      address valid;
    * the topology ``provider`` (and its ``concentration`` knob), only
      when the effective provider — ``topology`` if requested, else the
      params' — is the default mesh: a mesh job must keep its
      pre-provider-layer address (the warm cache survives the refactor),
      while any non-mesh provider legitimately forks the cache — it
      simulates a different network.
    """
    blob = {**subject, "config": jsonable(config), "params": jsonable(params)}
    blob["config"].get("sim", {}).pop("kernel", None)
    blob["params"].get("simulation", {}).pop("kernel", None)
    mesh_blob = blob["params"].get("mesh", {})
    if (topology or mesh_blob.get("provider", "mesh")) == "mesh":
        mesh_blob.pop("provider", None)
        mesh_blob.pop("concentration", None)
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def job_digest(
    spec: JobSpec,
    config: ExperimentConfig,
    params: ArchitectureParams,
) -> str:
    """Stable SHA-256 content digest of (spec, config, params).

    Canonical JSON (sorted keys, no whitespace) over the normalized spec
    plus every config and architecture field, so any change that could
    alter the simulated result yields a different address — minus the
    digest-neutral fields :func:`stable_digest` strips.  Non-default
    topologies requested per-job travel in the spec's ``("topology",
    name)`` extra, which is part of the digest like any other spec field.
    """
    normalized = normalize_spec(spec, config)
    return stable_digest(
        config, params, spec=jsonable(normalized),
        topology=dict(normalized.extra).get("topology"),
    )


def sweep_grid(
    styles: Sequence[str],
    widths: Sequence[int],
    workloads: Sequence[str],
    *,
    adaptive_routing: bool = False,
    seeds: Iterable[Optional[int]] = (None,),
    faults: Optional[str] = None,
    topology: Optional[str] = None,
    control: Optional[str] = None,
) -> list[JobSpec]:
    """The full (style x link-width x workload x seed) unicast grid.

    Cells are emitted in deterministic nested order (styles outermost),
    which is also the order the sweep engine reports results in.
    ``faults``, ``topology`` and ``control`` apply one per-cell request to
    every cell, folded into each spec's ``extra`` — and therefore its
    digest — by :func:`cell_extra`; every axis value is validated by
    :func:`check_cell`, so a bad grid raises :class:`SpecError` before
    any cell is built.
    """
    extra = cell_extra(faults=faults, topology=topology, control=control)
    for style in styles:
        for width in widths:
            for workload in workloads:
                check_cell(style, width, workload, online=control is not None)
    return [
        JobSpec(
            kind="unicast",
            style=style,
            link_bytes=width,
            workload=workload,
            seed=seed,
            adaptive_routing=adaptive_routing,
            design_workload=workload if style in PROFILED_STYLES else None,
            extra=extra,
        )
        for style in styles
        for width in widths
        for workload in workloads
        for seed in seeds
    ]
