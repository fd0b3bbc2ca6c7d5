"""The :class:`SimKernel` interface, the kernel registry, and the resolver.

A *kernel* owns the per-cycle execution of the pipeline — the event wheel
that carries flits between routers and the five-stage loop (arrivals and
ejections, interface injection, RC/VA, SA/ST/LT).  The
:class:`~repro.noc.network.Network` keeps everything a kernel must share
with the rest of the system: topology and wiring, the injection API, the
``active`` / ``_ni_busy`` scheduling sets, packet accounting, statistics,
multicast hooks, fault state, and the observation sink.  Swapping kernels
therefore never changes what traffic generators, multicast engines, or the
fault subsystem see.

Two kernels ship (see :mod:`repro.noc.kernel` for the shortlist); the
registry is *public*: third-party kernels join with::

    from repro.noc import kernel

    kernel.register("mykernel", MyKernel,
                    capabilities={"faults", "stage_profile"})

Capability flags
----------------
Every registration declares what the kernel can execute, from
:data:`CAPABILITIES`:

* ``"faults"`` — honors a runtime :class:`~repro.faults.state.FaultState`
  (dead-link grant vetoes, endpoint drops, repair rescheduling);
* ``"multicast"`` — executes multi-target forks installed through
  ``Network.mc_targets_fn`` (synchronized replication);
* ``"stage_profile"`` — supports the per-stage
  :class:`~repro.obs.profile.StageProfile` timing path.

Selection *fails fast*: :func:`require_capabilities` (called by the
:class:`~repro.noc.simulator.Simulator` preamble, ``Network.use_kernel``,
and ``DesignPoint.new_network``) raises :class:`KernelCapabilityError`
when a run's features exceed the chosen kernel's declared capabilities,
instead of letting an incomplete kernel silently diverge from the
reference semantics.

One resolver
------------
Kernel selection historically had four overlapping knobs.  They now feed
one precedence rule, implemented by :func:`resolve_kernel` and applied in
the Simulator preamble (every entrypoint — ``repro.api``, the CLI, the
sweep engine, serve — funnels through it):

1. an **explicit call-site request** — ``repro.api.simulate(kernel=...)``,
   ``sweep(kernel=...)``, CLI ``--kernel`` (all of which write
   ``SimulationParams.kernel``), or ``SimulationParams.kernel`` set
   directly;
2. the **network's constructed kernel** — ``Network(kernel=...)`` /
   ``DesignPoint.new_network(kernel=...)``, which is why the differential
   suite's explicitly built oracle networks are never silently clobbered;
3. the registry :data:`DEFAULT_KERNEL` (what ``Network`` uses when nobody
   asks for anything).

The kernel contract is *exact*: for any (seed, traffic, shortcut set,
fault schedule, multicast configuration) every registered first-party
kernel must produce identical
:meth:`~repro.noc.stats.NetworkStats.digest` values and, when tracing is
attached, identical event streams.  Anything weaker would let an
optimization silently change arbitration order and move every benchmark
table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.registry import Registry, RegistrySpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network
    from repro.obs.profile import StageProfile

#: The kernel a Network uses when none is requested.
DEFAULT_KERNEL = "batch"

#: The capability vocabulary kernels declare from (see module docstring).
CAPABILITIES = frozenset({"faults", "multicast", "stage_profile"})


class KernelCapabilityError(RuntimeError):
    """A selected kernel cannot execute the features this run needs."""


#: One registry entry: ``factory(network) -> SimKernel`` plus its flags.
KernelSpec = RegistrySpec

#: name -> KernelSpec.  ``factory`` is called with the network to bind
#: (normally a :class:`SimKernel` subclass); a kernel that omits a flag is
#: *refused* — :class:`KernelCapabilityError`, before any cycle runs —
#: whenever a run needs that feature (see :class:`~repro.registry.Registry`).
KERNELS = Registry("kernel", "kernels", DEFAULT_KERNEL, CAPABILITIES,
                   KernelCapabilityError)

register = KERNELS.register
unregister = KERNELS.unregister
get_spec = KERNELS.get_spec
list_kernels = KERNELS.rows
require_capabilities = KERNELS.require
#: ``resolve_kernel(requested, network_kernel)`` -> a validated kernel
#: *name* under the "One resolver" precedence above.
resolve_kernel = KERNELS.resolve


def get_kernel(name: str):
    """The kernel factory registered under ``name`` (see :func:`get_spec`)."""
    return get_spec(name).factory


def kernel_capabilities(name: str) -> frozenset[str]:
    """The declared capability flags of the kernel named ``name``."""
    return get_spec(name).capabilities


def required_capabilities(
    net: "Network", stage_profile: Optional["StageProfile"] = None,
) -> set[str]:
    """The capability flags this network's current features demand."""
    needs = set()
    if net.fault_state is not None:
        needs.add("faults")
    if net.mc_targets_fn is not None:
        needs.add("multicast")
    if stage_profile is not None:
        needs.add("stage_profile")
    return needs


class SimKernel:
    """One cycle-execution strategy bound to a network.

    Subclasses implement :meth:`step` (advance the bound network by one
    cycle) and may override :meth:`rewire` (invalidate topology-derived
    caches after :meth:`~repro.noc.network.Network.apply_shortcuts`) and
    :meth:`step_block` (bulk stepping).

    ``stage_profile`` — normally ``None`` — attaches a
    :class:`~repro.obs.profile.StageProfile` that accumulates per-stage
    wall time; kernels must keep the profiled path out of the
    unprofiled hot loop (one attribute check per cycle, no timers).
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, net: "Network"):
        self.net = net
        self.stage_profile: Optional["StageProfile"] = None

    def step(self) -> None:
        """Advance the bound network by one cycle."""
        raise NotImplementedError

    def step_block(
        self,
        cycles: int,
        tick: Optional[Callable[[], None]] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Advance up to ``cycles`` cycles, calling ``tick`` before each.

        ``stop`` is checked before each cycle; returning True ends the
        block early (the drain-phase termination test).  The base
        implementation is the plain loop every driver historically ran;
        a kernel may override it with a loop that keeps hot state in
        locals across the whole block.
        """
        step = self.step
        if tick is None and stop is None:
            for _ in range(cycles):
                step()
            return
        for _ in range(cycles):
            if stop is not None and stop():
                return
            if tick is not None:
                tick()
            step()

    def rewire(self) -> None:
        """Topology changed (shortcut retune): drop derived caches.

        Only called on a quiescent network (no packets in flight, event
        wheel empty) — :meth:`Network.apply_shortcuts` guarantees this.
        """

    @property
    def idle(self) -> bool:
        """True when the kernel holds no scheduled events."""
        return self.net._open_packets == 0


def advance_faults(net: "Network", c: int) -> None:
    """Shared step prologue: advance the fault state, reschedule on repair.

    A repair can unblock stalled RCs anywhere, so every router holding
    work is re-added to the active set — in router-id order, which all
    kernels must preserve (the active set's internal layout depends on
    the exact mutation sequence, and arbitration order depends on the
    layout).
    """
    observation = net.observation
    for fault, went_down in net.fault_state.advance(c):
        if observation is not None:
            observation.on_fault(fault, c, went_down)
        if not went_down:
            for rid, router in enumerate(net.routers):
                if router.has_work():
                    net.active.add(rid)


def replay_active_ops(active: set, ops: list) -> None:
    """Apply deferred active-set mutations in their recorded order.

    The switch stage iterates ``net.active`` while sends add downstream
    routers and drained routers are removed.  The original code snapshotted
    the set with ``list(...)`` every cycle and mutated in place; the
    kernels instead iterate the live set and record each mutation
    as an int — ``rid + 1`` for an add, ``-(rid + 1)`` for a discard —
    replayed here after the pass.  Because a CPython set's internal layout
    (and so its iteration order) is a function of the exact add/discard
    sequence, replaying the identical sequence keeps future iteration
    order — and therefore arbitration under contention — bit-identical to
    the snapshot-and-mutate original, without the per-cycle copy.
    """
    for op in ops:
        if op > 0:
            active.add(op - 1)
        else:
            active.discard(-1 - op)
    del ops[:]
