"""The topology registry and resolver — the second instance of
:class:`repro.registry.Registry` (the kernel registry is the first).

Providers join the registry exactly the way kernels do::

    from repro.noc import topology

    topology.register("hamming", HammingTopology,
                      capabilities={"overlay", "faults"})

and from then on the whole stack can reach them: ``--topology hamming``
on the CLI, ``"topology": "hamming"`` in serve requests, a campaign
``topologies`` axis, and ``TopologyParams(provider="hamming")`` in code.

Capability flags
----------------
Every registration declares what the provider supports, from
:data:`TOPOLOGY_CAPABILITIES`:

* ``"overlay"`` — RF-I / wire shortcut overlays may be laid over the
  provider graph (shortcut selection runs on its distance matrix, and
  access points come from ``rf_enabled_routers``);
* ``"faults"`` — fault injection and route re-planning are supported
  (the provider graph stays routable under the BFS spanning-tree escape
  when links or routers die);
* ``"multicast"`` — cache-cluster multicast is supported (the provider
  exposes the cluster structure multicast transmitters key on).

All three first-party providers declare all three flags; the gate exists
so a third-party provider without, say, a cluster structure is refused
loudly — :class:`TopologyCapabilityError`, before any cycle runs — when
a run needs multicast, instead of failing somewhere inside a kernel.

Selection precedence (:func:`resolve_topology`) mirrors the kernel
resolver: an explicit request (CLI ``--topology`` / serve field / campaign
axis, all of which write the job's ``("topology", name)`` extra) beats
the params' ``provider`` field, which beats :data:`DEFAULT_TOPOLOGY`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.registry import Registry, RegistrySpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.topology.base import TopologyProvider
    from repro.params import TopologyParams

#: The provider used when neither the job nor the params request one.
DEFAULT_TOPOLOGY = "mesh"

#: The capability vocabulary providers declare from (see module docstring).
TOPOLOGY_CAPABILITIES = frozenset({"overlay", "faults", "multicast"})


class TopologyCapabilityError(RuntimeError):
    """A selected topology provider cannot support the features this run needs."""


#: One registry entry: ``factory(TopologyParams) -> TopologyProvider``
#: plus its flags.
TopologySpec = RegistrySpec

#: name -> TopologySpec.  ``factory`` is called with the
#: :class:`~repro.params.TopologyParams` to realize (normally a
#: :class:`TopologyProvider` subclass); a provider that omits a flag is
#: *refused* — :class:`TopologyCapabilityError`, before any cycle runs —
#: whenever a run needs that feature (see :class:`~repro.registry.Registry`).
TOPOLOGIES = Registry("topology", "topologies", DEFAULT_TOPOLOGY,
                      TOPOLOGY_CAPABILITIES, TopologyCapabilityError)

register = TOPOLOGIES.register
unregister = TOPOLOGIES.unregister
get_spec = TOPOLOGIES.get_spec
list_topologies = TOPOLOGIES.rows
require_topology_capabilities = TOPOLOGIES.require
#: ``resolve_topology(requested, params_provider)`` -> a validated
#: provider *name* under the precedence in the module docstring.
resolve_topology = TOPOLOGIES.resolve


def topology_capabilities(name: str) -> frozenset[str]:
    """The declared capability flags of the provider named ``name``."""
    return get_spec(name).capabilities


def build_topology(
    params: "TopologyParams", provider: Optional[str] = None,
) -> "TopologyProvider":
    """Realize ``params`` through its (or the requested) provider.

    The single construction funnel: every ``MeshTopology(params.mesh)``
    call site in the stack became ``build_topology(params.mesh)``, which
    is what lets a job's topology request reach network construction.
    """
    name = resolve_topology(provider, params.provider)
    return get_spec(name).factory(params)
