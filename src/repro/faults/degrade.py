"""Graceful degradation: rebuild a design around its structural faults.

Structural faults (present from cycle 0, never repaired) don't need to be
dodged cycle by cycle — the right response is to *re-plan*: drop the dead
shortcuts, remap the survivors onto the surviving frequency bands, rebuild
the routing tables without the dead mesh links/routers, and re-validate
deadlock freedom.  That is what :func:`degraded_design` does, returning a
new :class:`~repro.core.architectures.DesignPoint` whose zero-fault case is
the original object unchanged.

Semantics of each structural fault kind:

* **band b** — the shortcut enumerated onto band ``b`` loses its medium and
  is dropped; survivors re-pack onto bands ``0..k`` in their original order
  (matching how :meth:`Observation.bind` and the network wire bands by
  enumeration).
* **line l** — one of the bundle's transmission lines goes dark, shrinking
  the aggregate bandwidth; the band plan can now fund fewer channels, so
  the *highest-index* shortcuts are shed until the survivors fit.
* **link a-b** — both directed channels of the mesh link are excluded from
  every table (shortest-path, mesh-fallback, and escape).
* **router r** — every mesh link touching ``r`` dies, any shortcut
  terminating at ``r`` is dropped, and ``r`` can no longer source or sink
  traffic (injections from/to it are dropped at the interface).

Schedules whose faults — taken all at once, the worst case over any window
— would partition the surviving mesh are refused with
:class:`FaultPartitionError` before any simulation starts.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.faults.model import Fault, FaultSchedule
from repro.noc.routing import DisconnectedMeshError, RoutingTables, Shortcut
from repro.noc.topology import TopologyProvider
from repro.params import RFIParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.architectures import DesignPoint


class FaultPartitionError(DisconnectedMeshError):
    """The fault schedule disconnects the mesh; refuse to simulate it."""


def usable_band_count(
    num_bands: int, dead_lines: int, rfi: RFIParams
) -> int:
    """How many full channels the surviving transmission lines can fund."""
    if dead_lines <= 0:
        return num_bands
    surviving = max(0, rfi.num_lines - dead_lines) * rfi.line_gbps
    gbps_per_band = rfi.aggregate_bytes_per_cycle * 8 * 2.0 / num_bands
    return min(num_bands, int(surviving / gbps_per_band))


def remap_bands(
    shortcuts: Sequence[Shortcut],
    faults: Iterable[Fault],
    rfi: RFIParams,
    dead_routers: frozenset[int] = frozenset(),
) -> list[Shortcut]:
    """The shortcuts that survive band/line/router faults, re-packed in order.

    ``shortcuts`` is the current plan, band ``i`` carrying ``shortcuts[i]``.
    Band faults empty their band; router faults in ``dead_routers`` kill any
    shortcut touching them; the survivors re-enumerate onto bands ``0..k``;
    line faults then cap ``k`` at what the surviving lines can fund, shedding
    from the high end.
    """
    num_bands = rfi.shortcut_budget
    dead_bands: set[int] = set()
    dead_lines: set[int] = set()
    for fault in faults:
        if fault.kind == "band":
            if fault.target[0] >= num_bands:
                raise ValueError(
                    f"band fault {fault.canonical()} exceeds the "
                    f"{num_bands}-band plan"
                )
            dead_bands.add(fault.target[0])
        elif fault.kind == "line":
            if fault.target[0] >= rfi.num_lines:
                raise ValueError(
                    f"line fault {fault.canonical()} exceeds the "
                    f"{rfi.num_lines}-line bundle"
                )
            dead_lines.add(fault.target[0])
    survivors = [
        sc for band, sc in enumerate(shortcuts)
        if band not in dead_bands
        and sc.src not in dead_routers
        and sc.dst not in dead_routers
    ]
    return survivors[:usable_band_count(num_bands, len(dead_lines), rfi)]


def mesh_faults(
    topology: TopologyProvider, faults: Iterable[Fault]
) -> tuple[frozenset[tuple[int, int]], frozenset[int]]:
    """Validated ``(failed_links, failed_routers)`` from link/router faults."""
    n = topology.num_routers
    links: set[tuple[int, int]] = set()
    routers: set[int] = set()
    for fault in faults:
        if fault.kind == "link":
            a, b = fault.target
            if a >= n or b >= n:
                raise ValueError(
                    f"link fault {fault.canonical()} names a router outside "
                    f"the {n}-router mesh"
                )
            if all(nbr != b for _, nbr in topology.adjacency[a]):
                raise ValueError(
                    f"link fault {fault.canonical()} does not name a mesh "
                    "link (routers are not adjacent)"
                )
            links.add((min(a, b), max(a, b)))
        elif fault.kind == "router":
            if fault.target[0] >= n:
                raise ValueError(
                    f"router fault {fault.canonical()} is outside the "
                    f"{n}-router mesh"
                )
            routers.add(fault.target[0])
    return frozenset(links), frozenset(routers)


def validate_schedule(
    topology: TopologyProvider, schedule: FaultSchedule
) -> None:
    """Refuse schedules that could ever partition the mesh.

    Builds throwaway mesh-only tables with *every* link/router fault of the
    schedule applied at once — the worst case over any cycle window — so a
    transient outage can never strand live routers mid-run.  Raises
    :class:`FaultPartitionError`; band/line faults cannot partition anything
    (the mesh under the overlay is untouched) and are ignored here.
    """
    links, routers = mesh_faults(topology, schedule)
    if not links and not routers:
        return
    try:
        RoutingTables(
            topology, (), failed_links=links, failed_routers=routers
        )
    except DisconnectedMeshError as exc:
        raise FaultPartitionError(
            f"fault schedule {schedule.canonical()!r} partitions the mesh: "
            f"{exc}"
        ) from exc


def degraded_design(
    point: "DesignPoint", schedule: FaultSchedule
) -> "DesignPoint":
    """A copy of ``point`` re-planned around the schedule's structural faults.

    The whole schedule is validated against partition first (worst case,
    all faults at once); then the structural subset is folded into the
    shortcut set and routing tables.  Runtime (windowed or late-onset)
    faults are *not* applied here — they become a
    :class:`~repro.faults.state.FaultState` when the design instantiates a
    network.  With an empty schedule the original ``point`` is returned
    unchanged, keeping zero-fault runs bit-identical.
    """
    if not schedule:
        return point
    validate_schedule(point.topology, schedule)
    structural = schedule.structural()
    links, routers = mesh_faults(point.topology, structural)
    shortcuts = remap_bands(
        point.tables.shortcuts, structural, point.params.rfi,
        dead_routers=routers,
    )
    try:
        tables = RoutingTables(
            point.topology, shortcuts,
            failed_links=links, failed_routers=routers,
        )
    except DisconnectedMeshError as exc:
        raise FaultPartitionError(str(exc)) from exc
    return dataclasses.replace(
        point,
        name=f"{point.name}+f{schedule.short}",
        tables=tables,
        faults=schedule,
    )
