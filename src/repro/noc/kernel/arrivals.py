"""Arrival delivery and ejection completion — the wheel-draining stages.

Extracted verbatim from the pre-kernel ``Network._deliver_arrivals`` /
``Network._complete_ejections``.  Both operate on an event wheel the
calling kernel owns: the reference kernel passes ``defaultdict(list)``
buckets keyed by absolute cycle; the batch kernel re-implements these
stages against its slot-addressed ring (see
:mod:`repro.noc.kernel.batch`).

Ordering is semantically load-bearing in both stages:

* arrivals are processed in append order, and each ``active.add`` feeds
  the set's internal layout (→ future arbitration order);
* ejections are processed in append order, and each
  ``record_delivery`` appends to ``stats.latencies`` — part of the
  stats digest the equivalence suite compares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network


def deliver_arrivals(
    net: "Network", arrivals: dict[int, list], c: int, in_window: bool,
) -> None:
    """Buffer-write every flit scheduled to arrive this cycle."""
    for rid, port, vci, packet in arrivals.pop(c, ()):
        ip = net.routers[rid].in_ports[port]
        ip.vcs[vci].accept_flit(c, packet)
        ip.occupied.add(vci)
        if in_window:
            net.stats.activity.buffer_writes += 1
            if net.observation is not None:
                net.observation.on_buffer_write(rid, port, c, packet)
        net.active.add(rid)


def complete_ejections(
    net: "Network", deliveries: dict[int, list], c: int,
) -> None:
    """Finish every ejection whose tail flit cleared the local link."""
    for packet in deliveries.pop(c, ()):
        packet.tail_eject_cycle = max(packet.tail_eject_cycle, c)
        net.stats.record_delivery(packet, c)
        observed = (
            net.observation is not None
            and net.stats.in_window(packet.inject_cycle)
        )
        if observed:
            net.observation.on_deliver(packet, c)
        remaining = net._open_deliveries.get(packet.uid, 0) - 1
        if remaining <= 0:
            net._open_deliveries.pop(packet.uid, None)
            net._open_packets -= 1
            net.stats.record_completion(packet)
            if observed:
                net.observation.on_complete(packet, c)
        else:
            net._open_deliveries[packet.uid] = remaining
        for hook in net.delivery_hooks:
            hook(packet, c)
