"""Declarative, resumable scenario campaigns with Pareto reduction.

The scenario space of this repo — traffic patterns x design styles x
link widths x fault schedules x seeds — long ago outgrew hand-written
experiment scripts.  This package makes the whole sweep a first-class,
addressable object (ROADMAP item 5), sitting *above* the execution and
serving tiers in the layer diagram:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec`, a frozen
  declarative description of the grid axes, optional seeded sampling
  with a cell budget, and the reduction objectives; loadable from
  TOML/JSON (:func:`load_spec`) and expanded deterministically to the
  same digest-addressed :class:`~repro.exec.jobs.JobSpec` cells the
  sweep engine and serving tier run;
* :mod:`repro.campaign.runner` — :func:`run_campaign`, the chunked,
  checkpointed executor: a ``campaign.json`` manifest per campaign
  directory records per-cell status and metrics, so a killed campaign
  restarts with zero recomputation (manifest skip + warm store hits);
  cold cells flow through :func:`~repro.exec.engine.run_sweep` or a
  running ``repro serve`` instance (``client=ServeClient(...)``);
* :mod:`repro.campaign.pareto` — the reduction layer: Pareto frontiers
  over configurable minimized objectives (latency, power, area, fault
  drops).

Quick start::

    from repro.campaign import CampaignSpec, run_campaign
    spec = CampaignSpec(name="demo", styles=("baseline", "static"),
                        widths=(16, 8), workloads=("uniform",))
    result = run_campaign(spec, store="benchmarks/results/cache")
    result.pareto()            # non-dominated (latency, power) cells
    result.summary()           # warm/cold counts, profile, frontier size

or, from the shell::

    python -m repro campaign run --spec e-series --json
    python -m repro campaign report --name e-series --json
"""

from repro.campaign.pareto import (
    dominates, frontier_summary, objective_vector, pareto_frontier,
)
from repro.campaign.runner import (
    DEFAULT_CAMPAIGN_ROOT, MANIFEST_NAME, MANIFEST_SCHEMA, CampaignResult,
    cell_metrics, load_manifest, manifest_path, manifest_report,
    manifest_status, run_campaign,
)
from repro.campaign.spec import (
    OBJECTIVE_FIELDS, CampaignError, CampaignSpec, load_spec, spec_from_dict,
)

__all__ = [
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "DEFAULT_CAMPAIGN_ROOT",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "OBJECTIVE_FIELDS",
    "cell_metrics",
    "dominates",
    "frontier_summary",
    "load_manifest",
    "load_spec",
    "manifest_path",
    "manifest_report",
    "manifest_status",
    "objective_vector",
    "pareto_frontier",
    "run_campaign",
    "spec_from_dict",
]
