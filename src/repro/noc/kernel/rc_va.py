"""Route computation (RC) and virtual-channel allocation (VA).

Extracted verbatim from the pre-kernel ``Network`` methods.  The stage
functions here are shared by both kernels: the reference kernel calls
:func:`run_rc_va` directly, while the batch kernel re-implements the outer
loop and VA over its slot arrays but calls the same
:func:`compute_route` for everything that touches policy, faults or
multicast hooks — so the routing decision logic exists exactly once.

Router iteration order is *not* observable in this stage (VA only
allocates the router's own output-link VCs), so iterating the live
``net.active`` set directly — rather than a ``list(...)`` snapshot per
cycle, as the pre-kernel code did — is safe: nothing here mutates the
set.  Within a router, the per-port ascending-VC order of
``Router.occupied_vcs`` *is* observable (two heads may compete for the
last free downstream VC) and must be preserved by any reimplementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.noc.router import ACTIVE, ROUTE, VA, Router, VirtualChannel
from repro.noc.routing import EJECT
from repro.noc.topology import Port

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.message import Packet
    from repro.noc.network import Network

RF = int(Port.RF)


def compute_route(net: "Network", rid: int, vc: VirtualChannel) -> list[int]:
    """Output ports for the packet heading this VC (RC stage).

    An empty list means "no live route this cycle" (runtime faults):
    the head stays in RC and retries next cycle, counted in
    ``stats.fault_retries``.
    """
    packet = vc.packet
    if packet.message.is_multicast and net.mc_targets_fn is not None:
        return net.mc_targets_fn(net, rid, packet)
    if packet.dst == rid:
        if (
            net.fault_state is not None
            and net.fault_state.out_dead(rid, EJECT)
        ):
            return []
        return [EJECT]
    if vc.is_escape or packet.escape:
        port = net.tables.escape_port_for(rid, packet.dst)
        if (
            net.fault_state is not None
            and net.fault_state.out_dead(rid, port)
        ):
            return []
        return [port]
    port = net.tables.port_for(rid, packet.dst)
    if net.fault_state is not None and net.fault_state.out_dead(rid, port):
        return fault_fallback(net, rid, packet, port)
    if (
        net.policy.adaptive
        and port == RF
        and rf_congested(net, rid, packet.dst)
    ):
        packet.route_class = "adaptive-fallback"
        if (
            net.observation is not None
            and net.stats.in_window(net.cycle)
        ):
            net.observation.on_route_divert(
                packet, rid, net.cycle, "adaptive-fallback"
            )
        return [net.tables.mesh_port_for(rid, packet.dst)]
    return [port]


def fault_fallback(
    net: "Network", rid: int, packet: "Packet", port: int,
) -> list[int]:
    """The table's next hop is dead right now: detour or stall.

    Try the mesh fallback, then the escape route; if every option is
    dead too, stall (empty route) and retry — transient faults repair.
    Diverts count as ``fault_reroutes`` and trace as ``route`` events.
    """
    for fallback in (
        net.tables.mesh_port_for(rid, packet.dst),
        net.tables.escape_port_for(rid, packet.dst),
    ):
        if fallback != port and not net.fault_state.out_dead(rid, fallback):
            packet.route_class = "fault-fallback"
            if net.stats.in_window(net.cycle):
                net.stats.fault_reroutes += 1
                if net.observation is not None:
                    net.observation.on_route_divert(
                        packet, rid, net.cycle, "fault-fallback"
                    )
            return [fallback]
    return []


def rf_congested(net: "Network", rid: int, dst: int) -> bool:
    """Should this packet skip the RF shortcut and take the mesh?

    The HPCA-2008 adaptive policy, as a cost comparison: divert only
    when the *estimated wait* at the transmitter (queued flits over the
    shortcut's drain rate, plus a penalty when no VC is free) exceeds
    the *detour cost* of finishing the trip over mesh links.  Packets
    that gain many hops from the shortcut keep waiting; marginal ones
    peel off first, which is exactly what relieves the contention.
    """
    link = net.routers[rid].out_links.get(RF)
    if link is None:
        return True
    occupancy = sum(
        net.buffer_depth - link.credits[i] for i in range(net.num_vcs)
    )
    wait_estimate = occupancy / link.capacity
    if not any(not link.vc_busy[i] for i in range(net.num_vcs)):
        wait_estimate += net.policy.rf_congestion_threshold
    detour_hops = net.topology.manhattan(rid, dst) - net.tables.distance(rid, dst)
    detour_cost = detour_hops * net.policy.detour_cycles_per_hop
    return wait_estimate > detour_cost


def run_rc_va(net: "Network", c: int) -> None:
    """RC for newly arrived heads, VA for routed ones (reference loop)."""
    for rid in net.active:
        router = net.routers[rid]
        for ip, vc in router.occupied_vcs():
            if vc.state == ROUTE:
                if c >= vc.head_arrival + 1:
                    ports = compute_route(net, rid, vc)
                    if not ports:
                        # No live route (runtime fault): retry next cycle.
                        if net.stats.in_window(c):
                            net.stats.fault_retries += 1
                        continue
                    vc.targets = [(p, -1) for p in ports]
                    vc.state = VA
                    vc.va_eligible = c + 1
            elif vc.state == VA and c >= vc.va_eligible:
                try_va(net, rid, router, vc, c)


def try_va(
    net: "Network", rid: int, router: Router, vc: VirtualChannel, c: int,
) -> None:
    """Allocate a downstream VC on every target; divert to escape on timeout."""
    if vc.va_since < 0:
        vc.va_since = c
    escape = vc.is_escape or vc.packet.escape
    complete = True
    for i, (port, out_vc) in enumerate(vc.targets):
        if out_vc >= 0:
            continue
        link = router.out_links[port]
        allocated = link.allocate_vc(escape=escape, num_regular=net.num_vcs)
        if allocated is None:
            complete = False
        else:
            vc.targets[i] = (port, allocated)
    if complete:
        vc.state = ACTIVE
        vc.sa_ready = c + 1
        return
    # Escape diversion: a stalled unicast head abandons the table route
    # and retries over the deadlock-free XY escape class.
    if (
        not escape
        and not vc.packet.message.is_multicast
        and c - vc.va_since >= net.policy.escape_timeout
        and vc.packet.dst != rid
    ):
        release_partial_va(router, vc)
        vc.packet.escape = True
        vc.packet.route_class = "escape"
        if net.observation is not None and net.stats.in_window(c):
            net.observation.on_route_divert(vc.packet, rid, c, "escape")
        vc.targets = [
            (net.tables.escape_port_for(rid, vc.packet.dst), -1)
        ]
        vc.va_since = c  # restart the timeout clock in the escape class


def release_partial_va(router: Router, vc: VirtualChannel) -> None:
    """Free downstream VCs a partially allocated head is abandoning."""
    for port, out_vc in vc.targets:
        if out_vc >= 0:
            link = router.out_links[port]
            if not link.is_ejection:
                link.vc_busy[out_vc] = False
