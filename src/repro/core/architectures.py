"""Factories for the paper's NoC design points.

Every design evaluated in Section 5 is expressible here:

* ``baseline(link_bytes)`` — plain mesh, XY-equivalent shortest-path routing
  (16 B, 8 B, 4 B variants);
* ``static_rf(link_bytes)`` — mesh + 16 architecture-specific RF-I shortcuts
  fixed at design time (Fig 2b);
* ``wire_static(link_bytes)`` — the same static shortcuts implemented as
  buffered RC wires with distance-proportional multi-cycle latency (the
  "Mesh Wire Shortcuts" comparison of Fig 10a);
* ``adaptive_rf(link_bytes, num_access_points, frequency)`` — mesh + an
  adaptive overlay reconfigured per application from a profiled
  communication-frequency matrix (Fig 2c);
* ``adaptive_rf_multicast(...)`` — 15 adaptive shortcuts + the multicast
  band (the "MC+SC" design of Section 5.2).

A :class:`DesignPoint` is reusable: :meth:`DesignPoint.new_network` builds a
fresh simulation network (statistics and buffers are single-use) while the
expensive artifacts — selection, tables — are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.overlay import RFIOverlay
from repro.core.reconfig import ReconfigurationController, ReconfigurationPlan
from repro.noc.network import Network
from repro.noc.routing import RoutingPolicy, RoutingTables, Shortcut
from repro.noc.topology import TopologyProvider, build_topology
from repro.params import DEFAULT_PARAMS, ArchitectureParams
from repro.shortcuts.selection import (
    SelectionConfig, select_architecture_shortcuts,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.model import FaultSchedule


@dataclass
class DesignPoint:
    """One fully-resolved NoC architecture, ready to instantiate."""

    name: str
    params: ArchitectureParams
    topology: TopologyProvider
    tables: RoutingTables
    overlay: Optional[RFIOverlay] = None
    policy: RoutingPolicy = field(default_factory=RoutingPolicy)
    shortcut_style: str = "rf"
    plan: Optional[ReconfigurationPlan] = None
    #: The fault schedule this design was degraded for (see
    #: :func:`repro.faults.degraded_design`); structural faults are already
    #: folded into ``tables``, runtime ones become a per-network FaultState.
    faults: Optional["FaultSchedule"] = None

    @property
    def shortcuts(self) -> list[Shortcut]:
        """The shortcut edges overlaid on this design's mesh."""
        return list(self.tables.shortcuts)

    @property
    def link_bytes(self) -> int:
        """Mesh link width of this design point, in bytes."""
        return self.params.mesh.link_bytes

    def new_network(self, kernel: Optional[str] = None) -> Network:
        """A fresh simulation instance of this design.

        ``kernel`` selects the cycle-execution kernel (a registered name:
        ``"batch"`` / ``"reference"``); None takes the default.  Raises
        :class:`~repro.noc.kernel.KernelCapabilityError` when the chosen
        kernel cannot execute this design's fault schedule.
        """
        network = Network(
            self.topology, self.params, self.tables, self.policy,
            shortcut_style=self.shortcut_style,
            **({} if kernel is None else {"kernel": kernel}),
        )
        if self.faults is not None:
            from repro.faults.state import FaultState

            state = FaultState(
                self.faults, self.tables, self.topology, self.params.rfi
            )
            if not state.inert:
                network.fault_state = state
                from repro.noc.kernel import (
                    require_capabilities, required_capabilities,
                )

                require_capabilities(
                    network.kernel.name,
                    required_capabilities(network),
                    "this design's fault schedule",
                )
        return network


def _resolve(
    params: Optional[ArchitectureParams], link_bytes: Optional[int]
) -> ArchitectureParams:
    params = params or DEFAULT_PARAMS
    if link_bytes is not None:
        params = params.with_link_bytes(link_bytes)
    return params


def baseline(
    link_bytes: int = 16,
    params: Optional[ArchitectureParams] = None,
    topology: Optional[TopologyProvider] = None,
) -> DesignPoint:
    """The mesh baseline at a given link width."""
    params = _resolve(params, link_bytes)
    topo = topology or build_topology(params.mesh)
    return DesignPoint(
        name=f"baseline-{link_bytes}B",
        params=params,
        topology=topo,
        tables=RoutingTables(topo, []),
    )


def static_rf(
    link_bytes: int = 16,
    params: Optional[ArchitectureParams] = None,
    topology: Optional[TopologyProvider] = None,
    method: str = "greedy",
    budget: Optional[int] = None,
) -> DesignPoint:
    """Mesh + architecture-specific (design-time) RF-I shortcuts."""
    params = _resolve(params, link_bytes)
    topo = topology or build_topology(params.mesh)
    config = SelectionConfig(
        budget=budget if budget is not None else params.rfi.shortcut_budget
    )
    shortcuts = select_architecture_shortcuts(topo, config, method)
    overlay = RFIOverlay.for_static_shortcuts(topo, shortcuts, params.rfi)
    return DesignPoint(
        name=f"static-{link_bytes}B",
        params=params,
        topology=topo,
        tables=RoutingTables(topo, shortcuts),
        overlay=overlay,
    )


def wire_static(
    link_bytes: int = 16,
    params: Optional[ArchitectureParams] = None,
    topology: Optional[TopologyProvider] = None,
    method: str = "greedy",
) -> DesignPoint:
    """The static shortcuts re-implemented in buffered RC wire (Fig 10a)."""
    point = static_rf(link_bytes, params, topology, method)
    return DesignPoint(
        name=f"wire-static-{link_bytes}B",
        params=point.params,
        topology=point.topology,
        tables=point.tables,
        overlay=None,                 # no RF circuitry: these are wires
        shortcut_style="wire",
    )


def adaptive_rf(
    frequency: np.ndarray,
    link_bytes: int = 16,
    num_access_points: int = 50,
    params: Optional[ArchitectureParams] = None,
    topology: Optional[TopologyProvider] = None,
    use_regions: bool = True,
    adaptive_routing: bool = False,
) -> DesignPoint:
    """Mesh + adaptive overlay reconfigured for one application profile."""
    params = _resolve(params, link_bytes)
    topo = topology or build_topology(params.mesh)
    overlay = RFIOverlay(
        topo, topo.rf_enabled_routers(num_access_points), params.rfi,
        adaptive=True,
    )
    controller = ReconfigurationController(topo, overlay, use_regions=use_regions)
    plan = controller.reconfigure(frequency)
    return DesignPoint(
        name=f"adaptive{num_access_points}-{link_bytes}B",
        params=params,
        topology=topo,
        tables=plan.tables,
        overlay=overlay,
        policy=RoutingPolicy(adaptive=adaptive_routing),
        plan=plan,
    )


def adaptive_rf_multicast(
    frequency: np.ndarray,
    link_bytes: int = 16,
    num_access_points: int = 50,
    params: Optional[ArchitectureParams] = None,
    topology: Optional[TopologyProvider] = None,
    transmitter: Optional[int] = None,
) -> DesignPoint:
    """15 adaptive shortcuts + the RF multicast band (Section 5.2 'MC+SC')."""
    params = _resolve(params, link_bytes)
    topo = topology or build_topology(params.mesh)
    aps = topo.rf_enabled_routers(num_access_points)
    overlay = RFIOverlay(topo, aps, params.rfi, adaptive=True)
    if transmitter is None:
        transmitter = _default_multicast_transmitter(topo, aps)
    controller = ReconfigurationController(topo, overlay)
    plan = controller.reconfigure(
        frequency, multicast=True, multicast_transmitter=transmitter
    )
    return DesignPoint(
        name=f"adaptive{num_access_points}+mc-{link_bytes}B",
        params=params,
        topology=topo,
        tables=plan.tables,
        overlay=overlay,
        plan=plan,
    )


def _default_multicast_transmitter(topo: TopologyProvider, aps: list[int]) -> int:
    """The access point nearest a cluster's central cache bank."""
    ap_set = set(aps)
    for cluster in range(len(topo.cache_clusters)):
        central = topo.central_bank(cluster)
        if central in ap_set:
            return central
    # Fall back to the access point closest to any central bank.
    centrals = [topo.central_bank(i) for i in range(len(topo.cache_clusters))]
    return min(
        aps,
        key=lambda r: min(topo.manhattan(r, c) for c in centrals),
    )
