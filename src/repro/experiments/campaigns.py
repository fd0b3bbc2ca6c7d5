"""Named campaign definitions: the committed, citable scenario sweeps.

Hand-written experiment scripts scale to a handful of cells; these specs
are the declarative replacements (see :mod:`repro.campaign`).  Each is a
frozen :class:`~repro.campaign.spec.CampaignSpec` the CLI can run by
name (``repro campaign run --spec e-series``) and tests/CI can import.

* ``e-series`` — the paper's own design space: every overlay style x
  mesh link width x a locality-diverse workload set, reduced to the
  (latency, power) Pareto frontier (the Fig 10 question, asked of the
  whole grid instead of cherry-picked points).
* ``r-series`` — the resilience space: static vs adaptive overlays
  under structural and MTBF fault schedules, reduced over
  (latency, fault_drops).
* ``e-topology`` — the overlay x substrate space: every overlay style
  on every registered first-party topology provider (mesh, concentrated
  mesh, torus), asking the paper's question of stronger baselines —
  where does the RF-I overlay still buy latency/power once the
  substrate itself gets better?
* ``smoke`` — an 8-cell fast-config campaign (2 styles x 2 widths x
  2 workloads) small enough for CI to run cold-then-warm on every push.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.campaign.spec import CampaignSpec, load_spec, spec_from_dict

E_SERIES = CampaignSpec(
    name="e-series",
    styles=("baseline", "static", "wire", "adaptive"),
    widths=(16, 8, 4),
    workloads=("uniform", "1Hotspot", "biDF"),
    objectives=("latency", "power"),
    chunk=6,
)

R_SERIES = CampaignSpec(
    name="r-series",
    styles=("static", "adaptive"),
    widths=(16,),
    workloads=("uniform", "1Hotspot"),
    faults=(
        "",
        "band:0;band:1;band:2;band:3",
        "mtbf:bands=16,mtbf=40000,repair=4000,horizon=8000,seed=3",
    ),
    objectives=("latency", "fault_drops"),
    chunk=4,
)

E_TOPOLOGY = CampaignSpec(
    name="e-topology",
    styles=("baseline", "static", "adaptive"),
    widths=(16,),
    workloads=("uniform", "1Hotspot"),
    topologies=("mesh", "cmesh", "torus"),
    objectives=("latency", "power"),
    chunk=6,
    fast=True,
)

SMOKE = CampaignSpec(
    name="smoke",
    styles=("baseline", "static"),
    widths=(16, 8),
    workloads=("uniform", "1Hotspot"),
    objectives=("latency", "power"),
    chunk=4,
    fast=True,
)

#: Every named campaign the CLI accepts in place of a spec-file path.
NAMED_CAMPAIGNS: dict[str, CampaignSpec] = {
    spec.name: spec for spec in (E_SERIES, R_SERIES, E_TOPOLOGY, SMOKE)
}


def resolve_campaign(spec: Union[CampaignSpec, dict, str, Path]) -> CampaignSpec:
    """The campaign a caller named, however they named it.

    A :class:`CampaignSpec` is returned as is, a mapping of its fields is
    validated into one, a string is looked up in :data:`NAMED_CAMPAIGNS`
    and otherwise read as the path of a ``.toml``/``.json`` spec file
    (:class:`~repro.campaign.spec.CampaignError` if it cannot be loaded).
    """
    if isinstance(spec, CampaignSpec):
        return spec
    if isinstance(spec, dict):
        return spec_from_dict(spec)
    if isinstance(spec, (str, Path)):
        return NAMED_CAMPAIGNS.get(str(spec)) or load_spec(spec)
    raise TypeError(
        f"spec must be a CampaignSpec, mapping, path, or campaign "
        f"name, not {type(spec).__name__}")
