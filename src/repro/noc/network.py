"""The network: routers wired by links, stepped by a pluggable kernel.

:class:`Network` owns every router, output link, and network interface —
the structural model — plus the injection API, packet accounting, and the
``active`` / ``_ni_busy`` scheduling sets.  The per-cycle pipeline
execution (arrivals and ejections, interface injection, RC/VA, SA/ST/LT)
lives in a :mod:`repro.noc.kernel` — ``batch`` by default, ``reference``
as the differential-testing oracle — selected at construction or swapped
on a quiescent network with :meth:`Network.use_kernel`.  Traffic
generators call :meth:`Network.inject`; the simulator calls
:meth:`Network.step` once per network cycle, which delegates to the
kernel.

Multicast support: a packet whose route computation yields several targets
(a VCT tree fork, or the local-distribution fan-out at an RF multicast
receiver) is granted a switch slot only when every target has capacity and a
credit, then replicated to all of them.  Hooks (`mc_targets_fn`) let the
multicast engines install their forwarding logic without subclassing the
cycle loop.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.noc.kernel import (
    DEFAULT_KERNEL, get_kernel, require_capabilities, required_capabilities,
)
from repro.noc.message import Message, Packet
from repro.noc.router import OutputLink, Router
from repro.noc.routing import EJECT, RoutingPolicy, RoutingTables
from repro.noc.stats import NetworkStats
from repro.noc.topology import Port, TopologyProvider
from repro.params import ArchitectureParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.state import FaultState
    from repro.noc.routing import Shortcut
    from repro.obs import Observation

#: RC hook signature for multicast packets: (network, router_id, packet) ->
#: list of output ports the packet must be replicated to at this router.
McTargetsFn = Callable[["Network", int, Packet], list[int]]

#: Propagation delay of an optimally repeated RC wire, ns/mm.  Matches the
#: paper's framing: <= 4 ns across a 400 mm^2 die on a repeated bus versus
#: 0.3 ns for RF-I (Section 2, citing Ho et al.).
WIRE_NS_PER_MM = 0.2


class NetworkInterface:
    """Injection side of one router's local port.

    Models the local link: one flit per cycle total across the port's VCs,
    paced by credits against the router's LOCAL input buffers.
    """

    __slots__ = ("router_id", "queue", "link", "senders", "order", "rr")

    def __init__(self, router_id: int, link: OutputLink):
        self.router_id = router_id
        self.queue: deque[Packet] = deque()
        self.link = link                       # feeds the LOCAL input port
        self.senders: dict[int, list] = {}     # vc -> [packet, flits_remaining]
        #: Keys of ``senders`` in ascending order, maintained incrementally
        #: (kernels round-robin over it instead of re-sorting every cycle).
        self.order: list[int] = []
        self.rr = 0

    @property
    def busy(self) -> bool:
        """True while packets are queued or flits remain to send."""
        return bool(self.queue or self.senders)


class Network:
    """A mesh NoC, optionally overlaid with RF-I shortcuts."""

    def __init__(
        self,
        topology: TopologyProvider,
        params: ArchitectureParams,
        tables: Optional[RoutingTables] = None,
        policy: Optional[RoutingPolicy] = None,
        shortcut_style: str = "rf",
        kernel: str = DEFAULT_KERNEL,
    ):
        if shortcut_style not in ("rf", "wire"):
            raise ValueError("shortcut_style must be 'rf' or 'wire'")
        self.topology = topology
        self.params = params
        self.tables = tables or RoutingTables(topology, [])
        self.policy = policy if policy is not None else RoutingPolicy()
        self.shortcut_style = shortcut_style
        self.stats = NetworkStats()
        self.cycle = 0

        rp = params.router
        self.num_vcs = rp.num_vcs
        self.total_vcs = rp.total_vcs
        self.buffer_depth = rp.vc_buffer_flits
        self.link_bytes = params.mesh.link_bytes
        self.rf_capacity = max(1, params.rfi.shortcut_bytes // self.link_bytes)

        self.routers: list[Router] = []
        self.interfaces: list[NetworkInterface] = []
        self._build()

        self.active: set[int] = set()
        self._ni_busy: set[int] = set()
        self._open_packets = 0
        self._open_deliveries: dict[int, int] = {}  # packet uid -> remaining ejects
        self.delivery_hooks: list[Callable[[Packet, int], None]] = []
        self.mc_targets_fn: Optional[McTargetsFn] = None
        #: Observability sink (metrics + tracing); None keeps the hot path
        #: at a single attribute check per instrumented event.
        self.observation: Optional["Observation"] = None
        #: Runtime fault tracking (repro.faults); None — the overwhelmingly
        #: common case — keeps the cycle loop at one ``is None`` check per
        #: fault-sensitive decision.
        self.fault_state: Optional["FaultState"] = None
        #: The cycle-execution strategy (see :mod:`repro.noc.kernel`).
        #: Built last: kernels cache topology-derived state at construction.
        self.kernel = get_kernel(kernel)(self)

    def use_kernel(self, name: str) -> None:
        """Swap the execution kernel on a *quiescent* network.

        Registered kernels produce bit-identical results, so swapping
        mid-run would be semantically fine — but kernels own the
        in-flight event wheel, so the network must be drained first.
        Raises :class:`~repro.noc.kernel.KernelCapabilityError` when the
        requested kernel cannot execute this network's installed
        features (fault state, multicast hook).
        """
        if name == self.kernel.name:
            return
        if self._open_packets:
            raise RuntimeError(
                "cannot swap kernels with packets in flight; drain first"
            )
        require_capabilities(
            name, required_capabilities(self), "this network"
        )
        self.kernel = get_kernel(name)(self)

    def observe(self, observation: Optional["Observation"]) -> None:
        """Attach (or, with None, detach) an observation sink."""
        self.observation = observation
        if observation is not None:
            observation.bind(self)

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        topo = self.topology
        spacing = topo.router_spacing_mm
        for rid in range(topo.num_routers):
            router = Router(rid)
            router.add_input_port(int(Port.LOCAL), self.num_vcs, self.params.router.num_escape_vcs)
            self.routers.append(router)

        # Mesh links and the matching input ports.
        for rid, router in enumerate(self.routers):
            for port, neighbor in topo.neighbors(rid).items():
                opposite = topo.opposite_port(port)
                nbr_router = self.routers[neighbor]
                if int(opposite) not in nbr_router.in_ports:
                    nbr_router.add_input_port(
                        int(opposite), self.num_vcs, self.params.router.num_escape_vcs
                    )
                link = OutputLink(
                    rid, int(port), neighbor, int(opposite),
                    self.total_vcs, self.buffer_depth,
                    capacity=1, is_rf=False, length_mm=spacing,
                )
                router.out_links[int(port)] = link
                nbr_router.in_ports[int(opposite)].feeder = link

        # Shortcuts: a sixth port at each endpoint.  RF-I shortcuts are
        # single-cycle and dissipate RF energy; 'wire' shortcuts (the Fig 10a
        # comparison point) are buffered RC wires with distance-proportional
        # latency and ordinary link energy.
        for sc in self.tables.shortcuts:
            self._wire_shortcut(sc)

        # Ejection ports and network interfaces.
        for rid, router in enumerate(self.routers):
            router.out_links[EJECT] = OutputLink(
                rid, EJECT, None, -1, self.total_vcs, self.buffer_depth,
                capacity=1, is_rf=False, length_mm=0.0,
            )
            ni_link = OutputLink(
                rid, -1, rid, int(Port.LOCAL), self.total_vcs,
                self.buffer_depth, capacity=1, is_rf=False, length_mm=0.0,
            )
            router.in_ports[int(Port.LOCAL)].feeder = ni_link
            self.interfaces.append(NetworkInterface(rid, ni_link))

    def _wire_shortcut(self, sc: "Shortcut") -> None:
        """Create the sixth-port link realizing one shortcut."""
        topo = self.topology
        spacing = topo.router_spacing_mm
        src_router = self.routers[sc.src]
        dst_router = self.routers[sc.dst]
        if int(Port.RF) in src_router.out_links:
            raise ValueError(f"router {sc.src} already transmits on RF-I")
        if int(Port.RF) in dst_router.in_ports:
            raise ValueError(f"router {sc.dst} already receives on RF-I")
        dst_router.add_input_port(
            int(Port.RF), self.num_vcs, self.params.router.num_escape_vcs
        )
        if self.shortcut_style == "rf":
            is_rf, length_mm, latency = True, 0.0, 1
        else:
            is_rf = False
            length_mm = topo.manhattan(sc.src, sc.dst) * spacing
            latency = max(1, round(length_mm * WIRE_NS_PER_MM
                                   * self.params.mesh.network_ghz))
        link = OutputLink(
            sc.src, int(Port.RF), sc.dst, int(Port.RF),
            self.total_vcs, self.buffer_depth,
            capacity=self.rf_capacity, is_rf=is_rf,
            length_mm=length_mm, latency_cycles=latency,
        )
        src_router.out_links[int(Port.RF)] = link
        dst_router.in_ports[int(Port.RF)].feeder = link

    def apply_shortcuts(self, tables: RoutingTables) -> None:
        """Retune the overlay of a *quiescent* network to a new shortcut set.

        Models runtime reconfiguration (the tuning + routing-table-update
        steps of Section 3.2): every RF port is rewired to the new
        transmitter/receiver pairs and the routing tables are replaced.
        The network must be drained first — packets in flight hold virtual
        channels on links that may be about to disappear.
        """
        if self._open_packets:
            raise RuntimeError(
                "cannot retune shortcuts with packets in flight; drain first"
            )
        for router in self.routers:
            router.out_links.pop(int(Port.RF), None)
            router.in_ports.pop(int(Port.RF), None)
        self.tables = tables
        for sc in tables.shortcuts:
            self._wire_shortcut(sc)
        self.kernel.rewire()  # per-router caches and wheel sizing changed
        if self.observation is not None:
            self.observation.bind(self)  # the band map changed

    # -- injection ----------------------------------------------------------

    def inject(self, message: Message, inject_cycle: Optional[int] = None) -> Optional[Packet]:
        """Queue a message at its source network interface.

        ``inject_cycle`` defaults to the current cycle; multicast engines
        pass the *original* injection cycle when they inject stitched legs
        (e.g. the local-distribution hop after an RF broadcast), so the
        recorded latency spans the whole end-to-end path.

        Returns ``None`` — the message is *dropped*, counted in
        ``stats.fault_drops`` — when a fault state marks the source (or a
        unicast destination) router dead.
        """
        if self.fault_state is not None and (
            self.fault_state.blocks_endpoint(message.src)
            or (
                not message.is_multicast
                and self.fault_state.blocks_endpoint(message.dst)
            )
        ):
            if self.stats.in_window(self.cycle):
                self.stats.fault_drops += 1
                if self.observation is not None:
                    self.observation.on_fault_drop(
                        message.src, message.dst, self.cycle
                    )
            return None
        message.inject_cycle = self.cycle if inject_cycle is None else inject_cycle
        packet = Packet(message, self.link_bytes)
        self.interfaces[message.src].queue.append(packet)
        self._ni_busy.add(message.src)
        self._open_packets += 1
        self._open_deliveries[packet.uid] = self._destination_count(packet)
        distance = (
            self.topology.manhattan(message.src, message.dst)
            if not message.is_multicast
            else 0
        )
        self.stats.record_injection(packet, distance)
        if (
            self.observation is not None
            and self.stats.in_window(packet.inject_cycle)
        ):
            self.observation.on_inject(packet, message.src, packet.inject_cycle)
        return packet

    def _destination_count(self, packet: Packet) -> int:
        if packet.message.is_multicast and self.mc_targets_fn is not None:
            return len(packet.message.dbv)
        return 1

    @property
    def in_flight(self) -> int:
        """Packets injected but not yet delivered to every destination."""
        return self._open_packets

    def open_packet_uids(self) -> list[int]:
        """UIDs of packets still in flight (undelivered destinations)."""
        return list(self._open_deliveries)

    # -- running ---------------------------------------------------------------

    def step(self) -> None:
        """Advance the network by one cycle (delegates to the kernel)."""
        self.kernel.step()

    def run(self, cycles: int) -> None:
        """Step the network ``cycles`` times."""
        step = self.kernel.step
        for _ in range(cycles):
            step()

    def drain(self, max_cycles: int) -> bool:
        """Step until no packets are in flight; True if fully drained."""
        step = self.kernel.step
        for _ in range(max_cycles):
            if self._open_packets == 0:
                return True
            step()
        return self._open_packets == 0
