"""The unified run result: one shape for every entrypoint.

:class:`RunResult` is the single currency of ``ExperimentRunner`` cells,
``run_sweep``, the serve tier and the ``repro.api`` facade: stats +
activity + an optional metrics snapshot + an online cell's decision
journal + a provenance digest identifying exactly which inputs produced it
(the cell's :func:`~repro.exec.jobs.job_digest` — its store address).
``Simulator.run`` returns the bare :class:`~repro.noc.stats.NetworkStats`
a result is packaged from; ``repro.experiments.runner.RunResult``
re-exports this class.

``power``/``area`` are optional so a result can be built without a design
point to cost; runner- and sweep-produced results always carry them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.noc.stats import NetworkStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.power import AreaReport, PowerReport


@dataclass(frozen=True)
class RunResult:
    """One simulated (design, workload) cell, any entrypoint."""

    design: str
    workload: str
    avg_latency: float
    avg_flit_latency: float
    power: Optional["PowerReport"] = None
    area: Optional["AreaReport"] = None
    stats: Optional[NetworkStats] = None
    #: JSON-safe :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, when
    #: the run was observed; None otherwise.
    metrics: Optional[dict] = field(default=None, compare=False)
    #: The cell's job digest (its store address), when the run was
    #: addressable as a :class:`~repro.exec.jobs.JobSpec`.
    provenance: Optional[str] = None
    #: Online (closed-loop) cells only: the canonical control ``spec``, the
    #: decision ``journal`` (record dicts) and its ``summary`` roll-up.
    control: Optional[dict] = field(default=None, compare=False)

    @property
    def total_power_w(self) -> float:
        """Total NoC power of this run, in Watts (NaN without a model)."""
        return self.power.total_w if self.power is not None else float("nan")

    @property
    def total_area_mm2(self) -> float:
        """Total NoC active area of this design, in mm^2 (NaN without one)."""
        return self.area.total_mm2 if self.area is not None else float("nan")

    @property
    def activity(self):
        """The run's :class:`~repro.noc.stats.ActivityCounts` (or None)."""
        return self.stats.activity if self.stats is not None else None

    def with_provenance(self, digest: str) -> "RunResult":
        """A copy carrying ``digest`` (used when decoding legacy payloads)."""
        return replace(self, provenance=digest)

    def summary(self) -> dict:
        """Headline metrics as a JSON-safe dict (CLI ``--json`` output)."""
        out = {
            "design": self.design,
            "workload": self.workload,
            "avg_latency": self.avg_latency,
            "avg_flit_latency": self.avg_flit_latency,
            "power_w": self.total_power_w,
            "area_mm2": self.total_area_mm2,
            "provenance": self.provenance,
        }
        if self.stats is not None:
            out.update(
                delivered_packets=self.stats.delivered_packets,
                injected_packets=self.stats.injected_packets,
                delivery_ratio=self.stats.delivery_ratio,
                throughput_flits_per_cycle=(
                    self.stats.throughput_flits_per_cycle
                ),
                fault_drops=self.stats.fault_drops,
                fault_retries=self.stats.fault_retries,
                fault_reroutes=self.stats.fault_reroutes,
            )
        return out

    def to_dict(self) -> dict:
        """Full JSON-safe payload: summary + activity + metrics snapshot."""
        from repro.experiments.export import jsonable

        out = self.summary()
        if self.stats is not None:
            out["activity"] = jsonable(self.stats.activity)
        if self.metrics is not None:
            out["metrics"] = self.metrics
        return out
