"""Cycle-level network-on-chip substrate (Garnet-equivalent).

Public surface: the topology-provider layer (:class:`TopologyProvider`
and its registry; :class:`MeshTopology` is the default provider),
messages and packets, routing (provider-minimal / shortest-path tables /
adaptive policy), the cycle-level :class:`Network`, and the
:class:`Simulator` driver.

Both plugin registries live one level down and share an idiom:
``repro.noc.kernel`` (cycle-execution kernels) and
``repro.noc.topology`` (substrate providers).  The kernel registry's
``register``/``get_spec``/``unregister`` are re-exported here for
backward compatibility; address the topology registry through its module
(``from repro.noc import topology; topology.register(...)``).
"""

from repro.noc.kernel import (
    CAPABILITIES, DEFAULT_KERNEL, KERNELS, BatchKernel,
    KernelCapabilityError, KernelSpec, ReferenceKernel, SimKernel,
    get_kernel, get_spec, kernel_capabilities, list_kernels, register,
    resolve_kernel, unregister,
)
from repro.noc.message import Message, MessageClass, Packet, message_bytes
from repro.noc.network import Network, NetworkInterface
from repro.noc.routing import (
    EJECT, DisconnectedMeshError, RoutingPolicy, RoutingTables, Shortcut,
    xy_port,
)
from repro.noc.simulator import Simulator
from repro.noc.stats import ActivityCounts, NetworkStats
from repro.noc.topology import (
    DEFAULT_TOPOLOGY, TOPOLOGIES, TOPOLOGY_CAPABILITIES,
    ConcentratedMeshTopology, MeshTopology, NodeKind, Port,
    TopologyCapabilityError, TopologyProvider, TopologySpec, TorusTopology,
    build_topology, list_topologies, resolve_topology, topology_capabilities,
)

__all__ = [
    "ActivityCounts",
    "BatchKernel",
    "CAPABILITIES",
    "ConcentratedMeshTopology",
    "DEFAULT_KERNEL",
    "DEFAULT_TOPOLOGY",
    "DisconnectedMeshError",
    "EJECT",
    "KERNELS",
    "KernelCapabilityError",
    "KernelSpec",
    "Message",
    "MessageClass",
    "MeshTopology",
    "Network",
    "NetworkInterface",
    "NetworkStats",
    "NodeKind",
    "Packet",
    "Port",
    "ReferenceKernel",
    "RoutingPolicy",
    "RoutingTables",
    "Shortcut",
    "SimKernel",
    "Simulator",
    "TOPOLOGIES",
    "TOPOLOGY_CAPABILITIES",
    "TopologyCapabilityError",
    "TopologyProvider",
    "TopologySpec",
    "TorusTopology",
    "build_topology",
    "get_kernel",
    "get_spec",
    "kernel_capabilities",
    "list_kernels",
    "list_topologies",
    "message_bytes",
    "register",
    "resolve_kernel",
    "resolve_topology",
    "topology_capabilities",
    "unregister",
    "xy_port",
]
