"""Declarative campaign specs: axes + sampling, expanded to JobSpecs.

A :class:`CampaignSpec` describes a whole scenario sweep — the grid axes
(design styles, link widths, workloads, seeds, fault schedules, topology
providers, adaptive routing), an optional seeded random sample with a
cell budget, and the reduction objectives — as one frozen dataclass of
plain values.  It can
be written by hand, loaded from a TOML/JSON file (:func:`load_spec`), or
picked from the named registry in :mod:`repro.experiments.campaigns`.

Expansion is deterministic: :meth:`CampaignSpec.expand` walks the
topology axis outermost, then the fault axis, reuses
:func:`~repro.exec.jobs.sweep_grid` for each slice, normalizes every
cell against the run config, and (when a ``sample`` budget is set)
keeps a seeded, order-preserving subset.  Equal
specs therefore always name the same digest-addressed cells, which is
what makes a campaign resumable: the manifest and the result store both
key on the same addresses the sweep engine and the serving tier use.

Like job digests, the campaign digest (:meth:`CampaignSpec.digest`)
strips the simulation-kernel choice and the reduction-only knobs
(``objectives``, ``chunk``): neither changes any simulated result, so
neither may fork a campaign's identity.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from repro.exec.jobs import (
    JobSpec, SpecError, cell_extra, check_cell, normalize_spec, stable_digest,
    sweep_grid,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.export import jsonable
from repro.params import ArchitectureParams


class CampaignError(Exception):
    """An invalid campaign spec, manifest, or run request."""


#: Reduction objectives a campaign may name; every one is *minimized*.
#: Values are the keys of a cell's metrics block (see
#: :func:`repro.campaign.runner.cell_metrics`).
OBJECTIVE_FIELDS: dict[str, str] = {
    "latency": "avg_latency",
    "flit_latency": "avg_flit_latency",
    "power": "power_w",
    "area": "area_mm2",
    "fault_drops": "fault_drops",
}

#: Spec fields that never change a simulated result and therefore stay
#: out of the campaign digest (see :meth:`CampaignSpec.digest`).
DIGEST_NEUTRAL_FIELDS = ("kernel", "objectives", "chunk")


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative scenario campaign: axes, sampling, objectives."""

    name: str = "campaign"
    styles: tuple[str, ...] = ("baseline",)
    widths: tuple[int, ...] = (16,)
    workloads: tuple[str, ...] = ("uniform",)
    seeds: tuple[Optional[int], ...] = (None,)
    adaptive_routing: bool = False
    #: Fault-schedule spec strings; ``""`` is the fault-free slice.
    faults: tuple[str, ...] = ("",)
    #: Substrate providers to sweep (registered topology names); the
    #: default mesh-only axis keeps historical campaign digests.
    topologies: tuple[str, ...] = ("mesh",)
    #: Closed-loop control axis: ``None`` is the offline slice, a
    #: :class:`~repro.control.loop.ControlConfig` spec string (``""`` for
    #: defaults) runs the slice online; the default offline-only axis
    #: keeps historical campaign digests.
    control: tuple[Optional[str], ...] = (None,)
    #: Cell budget for seeded random sampling (None = the full grid).
    sample: Optional[int] = None
    sample_seed: int = 0
    #: Cells per checkpointed chunk (the resume granularity).
    chunk: int = 8
    #: Reduction objectives, each a key of :data:`OBJECTIVE_FIELDS`.
    objectives: tuple[str, ...] = ("latency", "power")
    #: Cycle-execution kernel for fresh cells (digest-neutral).
    kernel: Optional[str] = None
    fast: bool = False

    def __post_init__(self) -> None:
        for name in ("styles", "widths", "workloads", "seeds", "faults",
                     "topologies", "objectives", "control"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    # -- validation ----------------------------------------------------------

    def validate(self) -> "CampaignSpec":
        """Check every axis value; raises :class:`CampaignError`.

        Axis *types* and the campaign-only knobs are checked here; the
        cell vocabulary (names, spec syntax, what an online slice
        accepts) is :mod:`repro.exec.jobs`'s, re-raised unchanged.
        """
        if not self.name or not isinstance(self.name, str):
            raise CampaignError("campaign 'name' must be a non-empty string")
        for axis in ("styles", "widths", "workloads", "faults", "topologies",
                     "objectives", "control"):
            if not getattr(self, axis):
                raise CampaignError(f"campaign {axis!r} must be non-empty")
        for entry in self.control:
            if entry is not None and not isinstance(entry, str):
                raise CampaignError(
                    "'control' entries must be spec strings or null")
        for entry in self.faults + self.topologies:
            if not isinstance(entry, str):
                raise CampaignError(
                    "'faults' and 'topologies' entries must be strings")
        for seed in self.seeds:
            if seed is not None and not isinstance(seed, int):
                raise CampaignError("'seeds' entries must be integers or null")
        try:
            # Every control slice is checked against the whole grid: any
            # online slice restricts the styles, and a phased composite
            # workload — which only means something to a closed loop —
            # is refused unless every slice is online.
            for control in self.control:
                cell_extra(control=control)
                for style in self.styles:
                    for width in self.widths:
                        for workload in self.workloads:
                            check_cell(style, width, workload,
                                       online=control is not None)
            for faults in self.faults:
                cell_extra(faults=faults)
            for topology in self.topologies:
                cell_extra(topology=topology)
        except SpecError as exc:
            raise CampaignError(str(exc)) from exc
        for objective in self.objectives:
            if objective not in OBJECTIVE_FIELDS:
                raise CampaignError(
                    f"unknown objective {objective!r}; "
                    f"one of {sorted(OBJECTIVE_FIELDS)}")
        if self.sample is not None and self.sample <= 0:
            raise CampaignError("'sample' must be a positive cell budget")
        if self.chunk <= 0:
            raise CampaignError("'chunk' must be positive")
        if self.kernel is not None:
            from repro.noc.kernel import KERNELS

            if self.kernel not in KERNELS:
                raise CampaignError(
                    f"unknown kernel {self.kernel!r}; "
                    f"one of {sorted(KERNELS)}")
        return self

    # -- expansion -----------------------------------------------------------

    def grid_size(self) -> int:
        """Cells in the full grid, before any sampling."""
        return (len(self.styles) * len(self.widths) * len(self.workloads)
                * len(self.seeds) * len(self.faults) * len(self.topologies)
                * len(self.control))

    def expand(self, config: ExperimentConfig) -> list[JobSpec]:
        """The campaign's cells, normalized, in deterministic order.

        The control axis is outermost, then topologies, then faults;
        within a (control, topology, fault) slice the cells come in
        :func:`~repro.exec.jobs.sweep_grid` order (styles outermost).
        A ``sample`` budget keeps a seeded random subset *in grid order*,
        so equal (spec, config) pairs always expand identically.
        """
        self.validate()
        cells: list[JobSpec] = []
        for control_spec in self.control:
            for topology in self.topologies:
                for fault_spec in self.faults:
                    cells.extend(sweep_grid(
                        self.styles, self.widths, self.workloads,
                        adaptive_routing=self.adaptive_routing,
                        seeds=self.seeds,
                        faults=fault_spec or None,
                        topology=topology,
                        control=control_spec,
                    ))
        if self.sample is not None and self.sample < len(cells):
            rng = random.Random(self.sample_seed)
            keep = sorted(rng.sample(range(len(cells)), self.sample))
            cells = [cells[i] for i in keep]
        return [normalize_spec(cell, config) for cell in cells]

    # -- identity ------------------------------------------------------------

    def digest(self, config: ExperimentConfig,
               params: ArchitectureParams) -> str:
        """Stable SHA-256 content digest of (spec, config, params).

        The same construction as :func:`~repro.exec.jobs.job_digest`,
        minus the fields that cannot change any simulated result: the
        kernel choice (bit-identical by contract) and the reduction-only
        ``objectives``/``chunk`` knobs.  Like the job digest's handling
        of the topology provider, the default mesh-only ``topologies``
        axis is stripped so pre-provider-layer campaign manifests keep
        their identities; any other axis legitimately forks the digest.
        """
        spec_blob = jsonable(self)
        for neutral in DIGEST_NEUTRAL_FIELDS:
            spec_blob.pop(neutral, None)
        if tuple(spec_blob.get("topologies", ())) == ("mesh",):
            spec_blob.pop("topologies", None)
        # Same convention for the control axis: the default offline-only
        # axis must keep pre-control-plane campaign identities.
        if tuple(spec_blob.get("control", ())) == (None,):
            spec_blob.pop("control", None)
        return stable_digest(config, params, campaign=spec_blob)


#: File keys accepted by :func:`load_spec` (anything else is rejected).
_SPEC_KEYS = frozenset(f.name for f in fields(CampaignSpec))

#: Keys that arrive as lists and land as tuples.
_LIST_KEYS = ("styles", "widths", "workloads", "seeds", "faults",
              "topologies", "objectives", "control")


def spec_from_dict(data: dict, *, source: str = "<dict>") -> CampaignSpec:
    """Build and validate a :class:`CampaignSpec` from a plain mapping."""
    if not isinstance(data, dict):
        raise CampaignError(f"{source}: campaign spec must be a mapping")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise CampaignError(
            f"{source}: unknown campaign keys {sorted(unknown)}; "
            f"known keys: {sorted(_SPEC_KEYS)}")
    coerced = dict(data)
    for key in _LIST_KEYS:
        if key in coerced:
            value = coerced[key]
            if not isinstance(value, (list, tuple)):
                raise CampaignError(f"{source}: {key!r} must be a list")
            coerced[key] = tuple(value)
    try:
        spec = CampaignSpec(**coerced)
    except TypeError as exc:
        raise CampaignError(f"{source}: {exc}") from exc
    try:
        return spec.validate()
    except CampaignError as exc:
        raise CampaignError(f"{source}: {exc}") from exc


def load_spec(path: str | Path) -> CampaignSpec:
    """Load a campaign spec file (``.toml`` or ``.json``).

    TOML cannot spell ``null``, so a TOML ``seeds`` axis must list
    concrete integers; JSON specs may use ``null`` for the config-default
    seed.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CampaignError(f"cannot read campaign spec {path}: {exc}") from exc
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise CampaignError(f"{path}: invalid TOML: {exc}") from exc
    else:
        try:
            data = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CampaignError(f"{path}: invalid JSON: {exc}") from exc
    return spec_from_dict(data, source=str(path))


def with_kernel(spec: CampaignSpec, kernel: Optional[str]) -> CampaignSpec:
    """A copy of ``spec`` requesting ``kernel`` (None leaves it alone)."""
    return spec if kernel is None else replace(spec, kernel=kernel)


def with_topologies(
    spec: CampaignSpec, topologies: Optional[Sequence[str]],
) -> CampaignSpec:
    """A copy of ``spec`` on the given topology axis (None leaves it alone).

    Unlike :func:`with_kernel` this is *not* digest-neutral: a different
    substrate simulates different results, so the campaign identity (and
    its manifest) forks — except for the default mesh-only axis.
    """
    if topologies is None:
        return spec
    return replace(spec, topologies=tuple(topologies))
